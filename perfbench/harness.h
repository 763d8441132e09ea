// Shared plumbing for the benchmark workloads: arguments, clocks, input
// clips, order statistics, machine stamp, host-noise probes, output checks
// and the result printer. Nothing here calls into the program beyond the
// public headers of video/, codec/kernels and sim/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/pipeline.h"
#include "video/frame.h"
#include "video/sequence.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Report;

struct Args {
  std::string workload;
  std::uint64_t seed = 2005;
  int seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  /// Where a traced run writes its spans; empty keeps them in memory only.
  std::string trace_dir;
};

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();
std::int64_t now_ns();
/// Cost of one now_ns() call, measured once per process.
double clock_read_ns();
/// Seconds since main() started (the set-up clock's zero).
double since_start_s();
void mark_process_start();

/// Deterministic 64-bit mix of the workload seed and a stream tag, so each
/// loss model, fault injector and phase gets its own reproducible seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// --- inputs ---------------------------------------------------------------

using Clip = std::vector<pbpair::video::YuvFrame>;

/// The three paper clips (foreman, akiyo, garden), 300 QCIF frames each,
/// synthesized from the workload seed.
struct ClipSet {
  std::vector<std::shared_ptr<const Clip>> clips;
  /// Summed frame_at() thread CPU time and frame count
  /// (video.synth_ms_per_frame).
  double synth_ns = 0.0;
  std::uint64_t synth_frames = 0;
};

inline constexpr int kClipFrames = 300;

/// Synthesizes the three clips, one thread per clip.
ClipSet make_clips(std::uint64_t seed);

/// A frame source that copies pre-generated frames (no synthesis inside
/// the timed loop): stream frame i is clip frame (first_frame + i) mod the
/// clip length. `on_frame`, when set, runs first with the stream index.
pbpair::sim::FrameSource clip_source(
    std::shared_ptr<const Clip> clip, int first_frame = 0,
    std::function<void(int)> on_frame = nullptr);

/// Clip frame for stream frame `i` (the mapping clip_source uses).
const pbpair::video::YuvFrame& clip_frame(const Clip& clip, int first_frame,
                                          int i);

/// Number of set-ups behind setup_s: the workload's own, then rebuilds.
inline constexpr int kSetupReps = 5;

/// setup_s: the median of `first_s` (the workload's set-up, timed from
/// process start so it carries the start-up too) and kSetupReps - 1 timed
/// calls of `rebuild`, which repeats the set-up from scratch into objects
/// it then discards. Workloads call this after the timed phase and after
/// reading peak RSS, so the repeats neither overlap the measurement nor
/// leave freed clips behind to raise the peak.
double setup_median_s(double first_s, const std::function<void()>& rebuild);

// --- machine and host ----------------------------------------------------

/// JSON object: nproc, CPU model, per-slot kernel backend, build type,
/// commit and seed.
std::string machine_json(const Args& args);

/// A fixed integer loop; its duration tracks how fast this host runs
/// right now (diagnostic only).
double alu_probe_ms();

/// Keeps `threads` cores busy for two seconds. On the virtual machines
/// this benchmark runs on, threads started while the other cores have been
/// idle share one core for up to a second before they spread; running this
/// right before a multi-threaded timed phase keeps that start-up out of
/// the measurement.
void warm_cores(int threads);

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of host CPU time stolen between two /proc/stat samples.
double steal_pct(const CpuTimes& before, const CpuTimes& after);

double peak_rss_mb();

/// Host-noise diagnostics around a timed phase: the ALU probe before and
/// after, and the steal share in between. Reported, never gated.
class NoiseProbe {
 public:
  void begin();
  void end(Report& report);

 private:
  double alu_before_ms_ = 0.0;
  CpuTimes cpu_before_;
};

// --- output checks ---------------------------------------------------------

/// True when two frame traces agree in every field.
bool same_frame(const pbpair::sim::FrameTrace& a,
                const pbpair::sim::FrameTrace& b);

/// True when both runs produced the same frames (bytes, packets, loss,
/// PSNR, bad pixels, FEC and CRC counts) and the same totals and joules.
/// On mismatch `why` names the first difference.
bool same_result(const pbpair::sim::PipelineResult& a,
                 const pbpair::sim::PipelineResult& b, std::string* why);

// --- result ----------------------------------------------------------------

/// Collects metrics, diagnostics and check outcomes and prints them. The
/// last stdout line is the machine-readable result:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0);
  /// A diagnostic (never gated) printed in the detail line only.
  void info(const std::string& key, double value);
  void info_text(const std::string& key, const std::string& value);

  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  bool has(const std::string& name) const;

  /// Puts only the metrics named here on the result line, in this order;
  /// the others go under "layers" in the detail line.
  void limit_result_to(const std::vector<std::string>& names) {
    result_names_ = names;
  }

  /// Prints the human-readable table, one detail JSON line and the result
  /// line. Returns the process exit code (1 when a check failed).
  int print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  const Args& args_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> passed_;
  std::vector<std::string> failures_;
  std::vector<std::string> result_names_;  // empty: every metric
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
