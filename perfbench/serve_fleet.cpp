// serve_fleet: closed-loop serving the way `pbpair serve --metrics-port`
// runs it. 96 PBPAIR sessions (diamond search, seeded 10% frame loss,
// health tracking on) on a 3-shard SessionManager with 4-frame slices and
// 16 live sessions per shard, with observability on and one in-process
// client scraping /metrics and /healthz every 250 ms. It puts on the clock
// what paper_sweep bypasses: obs counters in the codec hot path, health
// windows, shard queues, lazy session construction and the exporter.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "common/buffer.h"
#include "layers.h"
#include "net/loss_model.h"
#include "obs/health.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "sim/session_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = pbpair::sim;
namespace obs = pbpair::obs;

constexpr int kSessions = 96;
constexpr int kShards = 3;
constexpr int kSlice = 4;
constexpr std::size_t kLivePerShard = 16;
constexpr int kSessionFrames = 60;  // `pbpair serve`'s default --frames
constexpr double kPlr = 0.10;
constexpr auto kScrapeEvery = std::chrono::milliseconds(250);

/// Frame-start timestamps and threads of one session, taken in its
/// FrameSource.
struct SessionClock {
  std::vector<std::int64_t> start_ns =
      std::vector<std::int64_t>(kSessionFrames);
  std::vector<int> thread = std::vector<int>(kSessionFrames);
};

struct Fleet {
  std::vector<StreamSpec> streams;
  std::vector<SessionClock> clocks;
  std::unique_ptr<sim::SessionManager> manager;
};

/// Session i plays clip i mod 3 from frame 60 * (i / 3) mod 300, so the
/// fleet covers every frame of every clip.
void build_fleet(const ClipSet& clips, std::uint64_t seed, Fleet* fleet) {
  pbpair::core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = kPlr;
  fleet->streams.clear();
  fleet->clocks = std::vector<SessionClock>(kSessions);
  std::vector<sim::SessionSpec> specs;
  for (int i = 0; i < kSessions; ++i) {
    StreamSpec stream;
    stream.scheme = sim::SchemeSpec::pbpair(pbpair);
    stream.config.frames = kSessionFrames;
    stream.config.encoder.qp = 10;
    stream.config.health = obs::HealthConfig{};
    stream.clip = clips.clips[static_cast<std::size_t>(i % 3)];
    stream.first_frame = (kSessionFrames * (i / 3)) % kClipFrames;
    const std::uint64_t loss_seed =
        mix_seed(seed, 2000 + static_cast<std::uint64_t>(i));
    stream.make_loss = [loss_seed] {
      return std::make_unique<pbpair::net::UniformFrameLoss>(kPlr, loss_seed);
    };
    SessionClock* clock = &fleet->clocks[static_cast<std::size_t>(i)];
    sim::SessionSpec spec;
    spec.scheme = stream.scheme;
    spec.config = stream.config;
    spec.make_loss = stream.make_loss;
    spec.source = clip_source(stream.clip, stream.first_frame,
                              [clock](int frame) {
                                const auto f = static_cast<std::size_t>(frame);
                                clock->start_ns[f] = now_ns();
                                clock->thread[f] = thread_ordinal();
                              });
    specs.push_back(std::move(spec));
    fleet->streams.push_back(std::move(stream));
  }
  fleet->manager = std::make_unique<sim::SessionManager>(std::move(specs));
}

sim::SessionManagerOptions fleet_options(int shards) {
  sim::SessionManagerOptions options;
  options.threads = shards;
  options.frames_per_slice = kSlice;
  sim::AdmissionConfig admission;
  admission.max_live_per_shard = kLivePerShard;
  options.admission = admission;
  return options;
}

/// Per-frame service times (ms) within slices: consecutive frame starts of
/// one session inside one slice, which run back to back on one shard.
void add_frame_times(const std::vector<SessionClock>& clocks,
                     std::vector<double>* frame_ms) {
  for (const SessionClock& clock : clocks) {
    for (std::size_t f = 0; f + 1 < clock.start_ns.size(); ++f) {
      if ((f + 1) % kSlice == 0) continue;
      frame_ms->push_back(
          static_cast<double>(clock.start_ns[f + 1] - clock.start_ns[f]) /
          1e6);
    }
  }
}

/// Shard busy and tail-idle shares and slice gaps of one pass. A frame
/// ends, by estimate, one median in-slice frame time after it starts; a
/// slice gap is the wait from the end of a session's slice to the start
/// of its next one.
void report_shard_layers(const std::vector<SessionClock>& clocks,
                         std::int64_t pass_start, std::int64_t pass_end,
                         Report& report) {
  std::vector<double> in_slice;
  add_frame_times(clocks, &in_slice);
  const auto frame_ns = static_cast<std::int64_t>(quantile(in_slice, 0.5) * 1e6);
  std::map<int, std::pair<std::int64_t, std::int64_t>> spans;
  std::vector<double> gaps_us;
  for (const SessionClock& clock : clocks) {
    for (std::size_t f = 0; f < clock.start_ns.size(); ++f) {
      const std::int64_t end = clock.start_ns[f] + frame_ns;
      auto [it, fresh] =
          spans.try_emplace(clock.thread[f], clock.start_ns[f], end);
      if (!fresh) {
        it->second.first = std::min(it->second.first, clock.start_ns[f]);
        it->second.second = std::max(it->second.second, end);
      }
      if (f > 0 && f % kSlice == 0) {
        const std::int64_t gap =
            clock.start_ns[f] - clock.start_ns[f - 1] - frame_ns;
        gaps_us.push_back(static_cast<double>(std::max<std::int64_t>(0, gap)) /
                          1e3);
      }
    }
  }
  const double wall = static_cast<double>(pass_end - pass_start);
  std::vector<double> busy;
  std::vector<double> tail;
  for (const auto& [thread, span] : spans) {
    busy.push_back(100.0 * static_cast<double>(span.second - span.first) /
                   wall);
    tail.push_back(100.0 *
                   static_cast<double>(std::max<std::int64_t>(
                       0, pass_end - span.second)) /
                   wall);
  }
  report.metric("sim.shard_busy_pct", mean(busy), "%", busy.size());
  report.metric("sim.tail_idle_pct", mean(tail), "%", tail.size());
  report.metric("sim.slice_gap_us_p50", quantile(gaps_us, 0.5), "us",
                gaps_us.size());
  report.metric("sim.slice_gap_us_p90", quantile(gaps_us, 0.9), "us",
                gaps_us.size());
}

/// The exporter's handler, as `pbpair serve` wires it, timing each render.
class Endpoints {
 public:
  obs::HttpResponse handle(const std::string& path) {
    obs::HttpResponse response;
    if (path == "/metrics") {
      const std::int64_t t0 = now_ns();
      response.body = obs::render_prometheus();
      const std::int64_t took = now_ns() - t0;
      std::lock_guard<std::mutex> lock(mutex_);
      render_ms_.push_back(static_cast<double>(took) / 1e6);
    } else if (path == "/healthz") {
      response.content_type = "application/json";
      response.body = obs::HealthRegistry::global().healthz_json() + "\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }

  std::vector<double> render_ms() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return render_ms_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> render_ms_;
};

/// One monitoring client: GET /metrics then /healthz every 250 ms while
/// active. Stops and joins in its destructor.
class Scraper {
 public:
  explicit Scraper(int port) : port_(port), thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void set_active(bool active) { active_.store(active); }
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<double>& scrape_ms() const { return scrape_ms_; }
  const std::vector<double>& scrape_bytes() const { return scrape_bytes_; }

 private:
  void loop() {
    auto next = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (active_.load()) {
        lock.unlock();
        scrape();
        lock.lock();
      }
      next += kScrapeEvery;
      wake_.wait_until(lock, next, [this] { return stop_; });
    }
  }

  void scrape() {
    const std::int64_t t0 = now_ns();
    std::size_t bytes = 0;
    for (const char* path : {"/metrics", "/healthz"}) {
      std::string body;
      int status = 0;
      ++attempted_;
      if (!obs::http_get("127.0.0.1", port_, path, &body, &status) ||
          status != 200 || body.empty()) {
        ++failed_;
      }
      bytes += body.size();
    }
    scrape_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    scrape_bytes_.push_back(static_cast<double>(bytes));
  }

  const int port_;
  std::atomic<bool> active_{true};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  // Written by the scraping thread only; read after stop().
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> scrape_ms_;
  std::vector<double> scrape_bytes_;
  std::thread thread_;  // last: started after every member it uses
};

struct Pass {
  std::vector<sim::PipelineResult> results;
  sim::AdmissionReport admission;
  double seconds = 0.0;
};

Pass run_pass(Fleet& fleet, int shards) {
  Pass pass;
  const double t0 = now_s();
  pass.results = fleet.manager->run(fleet_options(shards), &pass.admission);
  pass.seconds = now_s() - t0;
  return pass;
}

std::string aggregate_json(const Pass& pass) {
  return sim::SessionManager::aggregate(pass.results).to_json();
}

/// Replays fleet sessions layer by layer (in lockstep with fresh labeled
/// sessions, observability on) until `deadline_s`; each replay must match
/// its session and the fleet's result for that session.
void replay_sessions(const Fleet& fleet, const Pass& reference,
                     double deadline_s, Lockstep* lockstep, Report& report) {
  for (std::size_t i = 0; i < fleet.streams.size(); ++i) {
    lockstep->add(fleet.streams[i], i % 2 == 1,
                  sim::SessionManager::default_label(i, fleet.streams.size()));
  }
  lockstep->run_sequential(deadline_s, 2);
  bool same = lockstep->mismatches() == 0;
  std::string why = lockstep->first_mismatch();
  for (std::size_t i = 0; i < lockstep->streams_finished() && same; ++i) {
    same = same_result(lockstep->replay_result(i), reference.results[i], &why);
  }
  report.check(same, "layer replay of " +
                         std::to_string(lockstep->streams_finished()) +
                         " sessions equals the sessions and the fleet result" +
                         (same ? "" : ": " + why));
}

}  // namespace

void run_serve_fleet(const Args& args, Report& report) {
  obs::set_enabled(true);
  Endpoints endpoints;
  auto start_exporter = [&endpoints](obs::HttpExporter& exporter) {
    return exporter.start(0, [&endpoints](const std::string& path) {
      return endpoints.handle(path);
    });
  };
  const ClipSet clips = make_clips(args.seed);
  Fleet fleet;
  build_fleet(clips, args.seed, &fleet);
  obs::HttpExporter exporter;
  const bool exporter_ok = start_exporter(exporter);
  const double first_setup_s = since_start_s();
  report.check(exporter_ok, "metrics exporter started");
  if (!exporter_ok) return;
  const int port = exporter.port();

  if (args.trace) {
    report.metric("video.synth_ms_per_frame",
                  clips.synth_ns / static_cast<double>(clips.synth_frames) /
                      1e6,
                  "ms", clips.synth_frames);
    warm_cores(kShards + 1);
    Scraper scraper(port);
    const std::int64_t pass_start = now_ns();
    const Pass traced = run_pass(fleet, kShards);
    const std::int64_t pass_end = now_ns();
    report_shard_layers(fleet.clocks, pass_start, pass_end, report);
    report.metric("sim.admit_queued",
                  static_cast<double>(traced.admission.queued), "count");
    // Observability's cost: passes with it on (and scraped) against passes
    // with it off (and no scraper), alternating.
    std::vector<double> on_s = {traced.seconds};
    std::vector<double> off_s;
    for (int k = 0; k < 2; ++k) {
      scraper.set_active(false);
      obs::set_enabled(false);
      off_s.push_back(run_pass(fleet, kShards).seconds);
      obs::set_enabled(true);
      scraper.set_active(true);
      if (k == 0) on_s.push_back(run_pass(fleet, kShards).seconds);
    }
    scraper.stop();
    report.metric("obs.scrape_ms_p50", quantile(scraper.scrape_ms(), 0.5),
                  "ms", scraper.scrape_ms().size());
    report.metric("obs.scrape_ms_p90", quantile(scraper.scrape_ms(), 0.9),
                  "ms", scraper.scrape_ms().size());
    report.metric("obs.scrape_bytes", mean(scraper.scrape_bytes()), "B",
                  scraper.scrape_bytes().size());
    const std::vector<double> render = endpoints.render_ms();
    report.metric("obs.render_ms", quantile(render, 0.5), "ms", render.size());
    report.metric("obs.cost_pct",
                  100.0 * (mean(on_s) / mean(off_s) - 1.0), "%",
                  on_s.size() + off_s.size());
    std::vector<const sim::PipelineResult*> views;
    for (const sim::PipelineResult& r : traced.results) views.push_back(&r);
    report_result_layers(report, views);

    Tracer tracer;
    Lockstep lockstep(&tracer);
    const auto ledger_before = pbpair::common::copy_ledger();
    replay_sessions(fleet, traced, now_s() + args.seconds / 2.0, &lockstep,
                    report);
    const auto ledger_after = pbpair::common::copy_ledger();
    report_replay_layers(report, tracer, lockstep,
                         ledger_after.copied_bytes - ledger_before.copied_bytes);
    report.count(scraper.attempted() + lockstep.frames(), scraper.failed());
    write_trace(args, tracer, report);
    return;
  }

  NoiseProbe noise;
  noise.begin();
  warm_cores(kShards + 1);
  Scraper scraper(port);
  std::vector<double> frame_ms;
  std::string first_json;
  bool passes_agree = true;
  std::uint64_t frames = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t queued = 0;
  int passes = 0;
  Pass first;
  std::vector<double> pass_s;
  const double start = now_s();
  double elapsed = 0.0;
  do {
    Pass pass = run_pass(fleet, kShards);
    elapsed = now_s() - start;
    pass_s.push_back(pass.seconds);
    ++passes;
    add_frame_times(fleet.clocks, &frame_ms);
    for (const sim::PipelineResult& r : pass.results) frames += r.frames.size();
    admitted += pass.admission.accepted + pass.admission.queued;
    shed += pass.admission.shed;
    queued += pass.admission.queued;
    if (passes == 1) {
      first_json = aggregate_json(pass);
      first = std::move(pass);
    } else {
      passes_agree = passes_agree && aggregate_json(pass) == first_json;
    }
  } while (elapsed < args.seconds);
  scraper.stop();
  noise.end(report);
  const double peak_mb = peak_rss_mb();

  report.metric("setup_s", setup_median_s(first_setup_s, [&] {
                  const ClipSet c = make_clips(args.seed);
                  Fleet f;
                  build_fleet(c, args.seed, &f);
                  obs::HttpExporter e;
                  start_exporter(e);
                  e.stop();
                }),
                "s", kSetupReps);
  // Every pass serves the whole fleet, tail included; the median pass
  // drops a pass that a host stall or a slow thread start hit.
  std::uint64_t frames_per_pass = 0;
  for (const sim::PipelineResult& r : first.results) {
    frames_per_pass += r.frames.size();
  }
  report.metric("frames_per_s",
                static_cast<double>(frames_per_pass) / quantile(pass_s, 0.5),
                "frames/s", frames);
  report.metric("frame_ms_p50", quantile(frame_ms, 0.5), "ms",
                frame_ms.size());
  report.metric("frame_ms_p90", quantile(frame_ms, 0.9), "ms",
                frame_ms.size());
  OutputTotals totals;
  for (const sim::PipelineResult& r : first.results) totals.add(r);
  totals.report(report);
  report.metric("peak_rss_mb", peak_mb, "MB");
  report.info("passes", passes);
  report.info("pass_s_min", quantile(pass_s, 0.0));
  report.info("pass_s_max", quantile(pass_s, 1.0));
  report.info("overall_frames_per_s", static_cast<double>(frames) / elapsed);
  report.info("sessions_queued_per_pass",
              static_cast<double>(queued) / passes);
  report.info("scrapes", static_cast<double>(scraper.scrape_ms().size()));
  report.info("scrape_ms_max", quantile(scraper.scrape_ms(), 1.0));
  report.count(admitted + shed + scraper.attempted(), shed + scraper.failed());

  report.check(passes_agree, "every pass reproduces the first pass aggregate");
  const Pass serial = run_pass(fleet, 1);
  const std::string serial_json = aggregate_json(serial);
  report.check(serial_json == first_json,
               "aggregate on 1 shard equals aggregate on 3 shards" +
                   (serial_json == first_json
                        ? ""
                        : ": " + serial_json + " vs " + first_json));
  Tracer tracer;
  Lockstep lockstep(&tracer);
  replay_sessions(fleet, first, 0.0, &lockstep, report);
  exporter.stop();
}

}  // namespace perfbench
