#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "codec/kernels/kernels.h"
#include "common/json.h"

namespace perfbench {
namespace {

Clock::time_point g_process_start = Clock::now();

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& text) {
  return "\"" + pbpair::common::json_escape(text) + "\"";
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double clock_read_ns() {
  static const double cost = [] {
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
      const std::int64_t t0 = now_ns();
      std::int64_t sum = 0;
      for (int i = 0; i < 1000; ++i) sum += now_ns();
      volatile std::int64_t sink = sum;
      (void)sink;
      batches.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    }
    return quantile(batches, 0.5);
  }();
  return cost;
}

void mark_process_start() { g_process_start = Clock::now(); }

double since_start_s() {
  return std::chrono::duration<double>(Clock::now() - g_process_start)
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 over (seed, tag): distinct tags give uncorrelated seeds.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

ClipSet make_clips(std::uint64_t seed) {
  using pbpair::video::SequenceKind;
  const SequenceKind kinds[] = {SequenceKind::kForemanLike,
                                SequenceKind::kAkiyoLike,
                                SequenceKind::kGardenLike};
  ClipSet set;
  std::vector<Clip> clips(std::size(kinds));
  std::vector<double> synth_ns(std::size(kinds), 0.0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    threads.emplace_back([&, k] {
      const pbpair::video::SyntheticSequence sequence =
          pbpair::video::make_paper_sequence(kinds[k], seed);
      clips[k].reserve(kClipFrames);
      // Thread CPU time: the three threads start together, and on a
      // freshly woken guest they can share one core for a while.
      for (int i = 0; i < kClipFrames; ++i) {
        const std::int64_t t0 = thread_cpu_ns();
        clips[k].push_back(sequence.frame_at(i));
        synth_ns[k] += static_cast<double>(thread_cpu_ns() - t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 0; k < clips.size(); ++k) {
    set.clips.push_back(std::make_shared<const Clip>(std::move(clips[k])));
    set.synth_ns += synth_ns[k];
    set.synth_frames += kClipFrames;
  }
  return set;
}

const pbpair::video::YuvFrame& clip_frame(const Clip& clip, int first_frame,
                                          int i) {
  return clip.at(static_cast<std::size_t>(first_frame + i) % clip.size());
}

pbpair::sim::FrameSource clip_source(std::shared_ptr<const Clip> clip,
                                     int first_frame,
                                     std::function<void(int)> on_frame) {
  return [clip = std::move(clip), first_frame,
          on_frame = std::move(on_frame)](int i) {
    if (on_frame) on_frame(i);
    return clip_frame(*clip, first_frame, i);
  };
}

double setup_median_s(double first_s, const std::function<void()>& rebuild) {
  std::vector<double> took = {first_s};
  for (int r = 1; r < kSetupReps; ++r) {
    const double t0 = since_start_s();
    rebuild();
    took.push_back(since_start_s() - t0);
  }
  return quantile(took, 0.5);
}

std::string machine_json(const Args& args) {
  namespace kernels = pbpair::codec::kernels;
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const kernels::KernelTable& table = kernels::active();
  std::string slots = "{";
  for (int i = 0; i < kernels::kNumKernels; ++i) {
    const auto id = static_cast<kernels::KernelId>(i);
    if (i > 0) slots += ", ";
    slots += quoted(kernels::kernel_name(id)) + ": " +
             quoted(kernels::backend_name(table.origin_of(id)));
  }
  slots += "}";
  return "{\"seed\": " + std::to_string(args.seed) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + quoted(cpu) + ", \"kernel_backend\": " +
         quoted(kernels::backend_name(kernels::active_backend())) +
         ", \"kernel_slots\": " + slots + ", \"build_type\": " +
         quoted(PERFBENCH_BUILD_TYPE) + ", \"commit\": " + quoted(args.commit) +
         "}";
}

double alu_probe_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void warm_cores(int threads) {
  const double deadline = now_s() + 2.0;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([deadline] {
      while (now_s() < deadline) alu_probe_ms();
    });
  }
  for (std::thread& worker : workers) worker.join();
}

CpuTimes read_cpu_times() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void NoiseProbe::begin() {
  alu_before_ms_ = alu_probe_ms();
  cpu_before_ = read_cpu_times();
}

void NoiseProbe::end(Report& report) {
  const CpuTimes cpu_after = read_cpu_times();
  report.info("alu_probe_before_ms", alu_before_ms_);
  report.info("alu_probe_after_ms", alu_probe_ms());
  report.info("host_steal_pct", steal_pct(cpu_before_, cpu_after));
}

bool same_frame(const pbpair::sim::FrameTrace& x,
                const pbpair::sim::FrameTrace& y) {
  return x.index == y.index && x.qp == y.qp && x.type == y.type &&
         x.bytes == y.bytes && x.intra_mbs == y.intra_mbs &&
         x.pre_me_intra_mbs == y.pre_me_intra_mbs &&
         x.packets_sent == y.packets_sent &&
         x.packets_delivered == y.packets_delivered && x.lost == y.lost &&
         x.psnr_db == y.psnr_db && x.bad_pixels == y.bad_pixels &&
         x.fec_repair_sent == y.fec_repair_sent &&
         x.fec_recovered == y.fec_recovered &&
         x.fec_unrecoverable_windows == y.fec_unrecoverable_windows &&
         x.crc_corrupted == y.crc_corrupted;
}

bool same_result(const pbpair::sim::PipelineResult& a,
                 const pbpair::sim::PipelineResult& b, std::string* why) {
  auto fail = [why](const std::string& text) {
    if (why != nullptr) *why = text;
    return false;
  };
  if (a.frames.size() != b.frames.size()) return fail("frame count");
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    if (!same_frame(a.frames[i], b.frames[i])) {
      return fail("frame " + std::to_string(i));
    }
  }
  if (a.total_bytes != b.total_bytes || a.avg_psnr_db != b.avg_psnr_db ||
      a.total_bad_pixels != b.total_bad_pixels ||
      a.concealed_mbs != b.concealed_mbs ||
      a.channel.bytes_sent != b.channel.bytes_sent ||
      a.channel.packets_dropped != b.channel.packets_dropped) {
    return fail("totals");
  }
  if (a.total_energy_j() != b.total_energy_j()) return fail("joules");
  return true;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples});
}

bool Report::has(const std::string& name) const {
  for (const Entry& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, std::isfinite(value) ? number(value) : "null");
}

void Report::info_text(const std::string& key, const std::string& value) {
  info_.emplace_back(key, quoted(value));
}

void Report::check(bool ok, const std::string& what) {
  (ok ? passed_ : failures_).push_back(what);
}

int Report::print() const {
  std::printf("# perfbench %s seed=%llu seconds=%d trace=%d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  for (const Entry& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-36s %14.6g %-9s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& failure : failures_) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::ostringstream detail;
  detail << "{\"workload\": " << quoted(args_.workload)
         << ", \"trace\": " << (args_.trace ? 1 : 0)
         << ", \"seconds\": " << args_.seconds
         << ", \"machine\": " << machine_json(args_) << ", \"samples\": {";
  bool first = true;
  for (const Entry& m : metrics_) {
    if (m.samples == 0) continue;
    detail << (first ? "" : ", ") << quoted(m.name) << ": " << m.samples;
    first = false;
  }
  std::vector<const Entry*> on_result;
  std::vector<const Entry*> layers_only;
  if (result_names_.empty()) {
    for (const Entry& m : metrics_) on_result.push_back(&m);
  } else {
    for (const std::string& name : result_names_) {
      for (const Entry& m : metrics_) {
        if (m.name == name) on_result.push_back(&m);
      }
    }
    for (const Entry& m : metrics_) {
      if (std::find(result_names_.begin(), result_names_.end(), m.name) ==
          result_names_.end()) {
        layers_only.push_back(&m);
      }
    }
  }
  detail << "}, \"layers\": {";
  first = true;
  for (const Entry* m : layers_only) {
    detail << (first ? "" : ", ") << quoted(m->name) << ": {\"value\": "
           << number(m->value) << ", \"unit\": " << quoted(m->unit) << "}";
    first = false;
  }
  detail << "}, \"diagnostics\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    detail << (first ? "" : ", ") << quoted(key) << ": " << value;
    first = false;
  }
  detail << "}, \"checks_passed\": [";
  first = true;
  for (const std::string& what : passed_) {
    detail << (first ? "" : ", ") << quoted(what);
    first = false;
  }
  detail << "], \"checks_failed\": [";
  first = true;
  for (const std::string& what : failures_) {
    detail << (first ? "" : ", ") << quoted(what);
    first = false;
  }
  detail << "]}";
  std::printf("detail: %s\n", detail.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
  first = true;
  for (const Entry* m : on_result) {
    result << (first ? "" : ", ") << quoted(m->name) << ": {\"value\": "
           << number(m->value) << ", \"unit\": " << quoted(m->unit) << "}";
    first = false;
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
