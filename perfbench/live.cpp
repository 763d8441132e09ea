// live: open-loop real time, the paper's own scenario. One generator
// thread steps 8 StreamSessions at 30 fps each with staggered phases
// (240 frames/s offered) and times every frame from the moment it was due.
// Streams run PBPAIR with RTCP receiver reports at a 2-frame RTT feeding
// set_plr, over a Gilbert-Elliott channel with RS(8,2) FEC, CRC64 framing,
// about 1% fault injection, MTU 96 and diamond search; observability off.
#include <algorithm>
#include <cmath>

#include "common/buffer.h"
#include "core/pbpair_policy.h"
#include "layers.h"
#include "net/loss_model.h"
#include "workloads.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PAUSE() _mm_pause()
#else
#define PERFBENCH_PAUSE() ((void)0)
#endif

namespace perfbench {
namespace {

namespace sim = pbpair::sim;
namespace net = pbpair::net;

constexpr int kStreams = 8;
constexpr double kFps = 30.0;
constexpr std::int64_t kPeriodNs = static_cast<std::int64_t>(1e9 / kFps);
constexpr std::int64_t kStallNs = 5'000'000;  // a host stall worth counting

StreamSpec live_stream(const ClipSet& clips, std::uint64_t seed, int stream,
                       int part, int frames) {
  pbpair::core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  StreamSpec spec;
  spec.scheme = sim::SchemeSpec::pbpair(pbpair);
  spec.clip = clips.clips[static_cast<std::size_t>(stream % 3)];
  spec.first_frame = (stream * 37) % kClipFrames;
  sim::PipelineConfig& config = spec.config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.packetizer.mtu = 96;
  net::FecConfig fec;
  fec.scheme = net::FecScheme::kReedSolomon;
  fec.k = 8;
  fec.m = 2;
  config.fec = fec;
  config.wire = net::WireConfig{};
  const std::uint64_t tag = static_cast<std::uint64_t>(stream * 64 + part);
  net::FaultInjectorConfig faults;
  faults.seed = mix_seed(seed, 4000 + tag);
  faults.p_bit_flip = 0.004;
  faults.p_truncate = 0.003;
  faults.p_header_corrupt = 0.002;
  faults.p_duplicate = 0.001;
  config.faults = faults;
  config.feedback_rtt_frames = 2;
  config.on_feedback = [](int, const net::ReceiverReport& report,
                          pbpair::codec::RefreshPolicy& policy) {
    if (auto* p = dynamic_cast<pbpair::core::PbpairPolicy*>(&policy)) {
      p->set_plr(report.fraction_lost_as_double());
    }
  };
  // The channel of bench/fec_tradeoff: ~11% of packets in a 50%-loss
  // burst state.
  const std::uint64_t loss_seed = mix_seed(seed, 3000 + tag);
  spec.make_loss = [loss_seed] {
    net::GilbertElliottLoss::Params params;
    params.p_good_to_bad = 0.05;
    params.p_bad_to_good = 0.40;
    params.loss_in_good = 0.005;
    params.loss_in_bad = 0.50;
    return std::make_unique<net::GilbertElliottLoss>(params, loss_seed);
  };
  return spec;
}

/// Streams are cut into sessions of one clip length each; part p of a
/// stream covers its frames [300 p, 300 p + 300).
struct Schedule {
  int frames_per_stream = 0;
  int parts = 0;
  std::vector<std::int64_t> phase_ns;  // per stream, within one period
  std::vector<int> order;              // streams in phase order
  std::vector<std::vector<StreamSpec>> specs;  // [stream][part]

  int part_frames(int part) const {
    return std::min(kClipFrames, frames_per_stream - part * kClipFrames);
  }
};

Schedule make_schedule(const ClipSet& clips, std::uint64_t seed,
                       int seconds) {
  Schedule s;
  s.frames_per_stream = static_cast<int>(std::lround(seconds * kFps));
  s.parts = (s.frames_per_stream + kClipFrames - 1) / kClipFrames;
  for (int stream = 0; stream < kStreams; ++stream) {
    // Stream k starts k/8 of a period in, plus a seeded jitter of up to
    // half a slot.
    const double jitter =
        static_cast<double>(mix_seed(seed, 5000 + stream) % 1000) / 2000.0;
    s.phase_ns.push_back(static_cast<std::int64_t>(
        (stream + jitter) * static_cast<double>(kPeriodNs) / kStreams));
    s.order.push_back(stream);
    std::vector<StreamSpec> parts;
    for (int part = 0; part < s.parts; ++part) {
      parts.push_back(live_stream(clips, seed, stream, part, s.part_frames(part)));
    }
    s.specs.push_back(std::move(parts));
  }
  std::sort(s.order.begin(), s.order.end(), [&s](int a, int b) {
    return s.phase_ns[static_cast<std::size_t>(a)] <
           s.phase_ns[static_cast<std::size_t>(b)];
  });
  return s;
}

std::unique_ptr<sim::StreamSession> make_session(const StreamSpec& spec) {
  return std::make_unique<sim::StreamSession>(
      clip_source(spec.clip, spec.first_frame), spec.scheme,
      spec.make_loss ? spec.make_loss() : nullptr, spec.config);
}

}  // namespace

void run_live(const Args& args, Report& report) {
  using Sessions = std::vector<std::vector<std::unique_ptr<sim::StreamSession>>>;
  auto build_sessions = [](const Schedule& schedule) {
    Sessions sessions;
    for (const std::vector<StreamSpec>& parts : schedule.specs) {
      std::vector<std::unique_ptr<sim::StreamSession>> built;
      for (const StreamSpec& spec : parts) built.push_back(make_session(spec));
      sessions.push_back(std::move(built));
    }
    return sessions;
  };
  const ClipSet clips = make_clips(args.seed);
  const Schedule schedule = make_schedule(clips, args.seed, args.seconds);
  Sessions sessions = build_sessions(schedule);
  const double first_setup_s = since_start_s();

  if (args.trace) {
    report.metric("video.synth_ms_per_frame",
                  clips.synth_ns / static_cast<double>(clips.synth_frames) /
                      1e6,
                  "ms", clips.synth_frames);
    // Same streams, same interleaving, no waiting: every session is
    // stepped in lockstep with its layer replay.
    Tracer tracer;
    Lockstep lockstep(&tracer);
    const auto ledger_before = pbpair::common::copy_ledger();
    std::vector<std::size_t> ids;
    for (int part = 0; part < schedule.parts; ++part) {
      ids.clear();
      for (int stream = 0; stream < kStreams; ++stream) {
        ids.push_back(lockstep.add(
            schedule.specs[static_cast<std::size_t>(stream)]
                          [static_cast<std::size_t>(part)],
            stream % 2 == 1));
      }
      for (int f = 0; f < schedule.part_frames(part); ++f) {
        for (int stream : schedule.order) {
          lockstep.step(ids[static_cast<std::size_t>(stream)]);
        }
      }
      for (std::size_t id : ids) lockstep.finish(id);
    }
    const auto ledger_after = pbpair::common::copy_ledger();
    std::vector<const sim::PipelineResult*> views;
    for (std::size_t i = 0; i < lockstep.streams_finished(); ++i) {
      views.push_back(&lockstep.replay_result(i));
    }
    report_result_layers(report, views);
    report_replay_layers(report, tracer, lockstep,
                         ledger_after.copied_bytes - ledger_before.copied_bytes);
    report.check(lockstep.mismatches() == 0,
                 "layer replay equals StreamSession frame by frame (" +
                     std::to_string(lockstep.frames()) + " frames)" +
                     (lockstep.mismatches() == 0
                          ? ""
                          : ": " + lockstep.first_mismatch()));
    report.count(lockstep.frames(), 0);
    write_trace(args, tracer, report);
    return;
  }

  NoiseProbe noise;
  noise.begin();
  const std::uint64_t scheduled =
      static_cast<std::uint64_t>(schedule.frames_per_stream) * kStreams;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  latency_ms.reserve(scheduled);
  lag_ms.reserve(scheduled);
  std::uint64_t stalls = 0;
  std::uint64_t clock_reads = 0;
  const std::int64_t t0 = now_ns() + 2 * kPeriodNs;
  std::int64_t last_end = t0;
  for (int f = 0; f < schedule.frames_per_stream; ++f) {
    const int part = f / kClipFrames;
    for (int stream : schedule.order) {
      const std::int64_t due =
          t0 + schedule.phase_ns[static_cast<std::size_t>(stream)] +
          static_cast<std::int64_t>(f) * kPeriodNs;
      // Spin to the due time: a sleeping wake-up arrives milliseconds
      // late on a shared host. A gap between two clock reads is a stall.
      std::int64_t now = now_ns();
      while (now < due) {
        PERFBENCH_PAUSE();
        const std::int64_t later = now_ns();
        ++clock_reads;
        if (later - now > kStallNs) ++stalls;
        now = later;
      }
      sessions[static_cast<std::size_t>(stream)]
              [static_cast<std::size_t>(part)]
                  ->step();
      last_end = now_ns();
      lag_ms.push_back(static_cast<double>(now - due) / 1e6);
      latency_ms.push_back(static_cast<double>(last_end - due) / 1e6);
    }
  }
  const double elapsed = static_cast<double>(last_end - t0) / 1e9;
  noise.end(report);
  const double peak_mb = peak_rss_mb();

  OutputTotals totals;
  std::vector<std::vector<sim::PipelineResult>> results(kStreams);
  for (int stream = 0; stream < kStreams; ++stream) {
    for (auto& session : sessions[static_cast<std::size_t>(stream)]) {
      results[static_cast<std::size_t>(stream)].push_back(
          session->take_result());
      totals.add(results[static_cast<std::size_t>(stream)].back());
    }
  }
  report.metric("setup_s", setup_median_s(first_setup_s, [&] {
                  const ClipSet c = make_clips(args.seed);
                  build_sessions(make_schedule(c, args.seed, args.seconds));
                }),
                "s", kSetupReps);
  report.metric("frames_per_s", static_cast<double>(totals.frames) / elapsed,
                "frames/s", totals.frames);
  report.metric("frame_ms_p50", quantile(latency_ms, 0.5), "ms",
                latency_ms.size());
  report.metric("frame_ms_p90", quantile(latency_ms, 0.9), "ms",
                latency_ms.size());
  totals.report(report);
  report.metric("peak_rss_mb", peak_mb, "MB");
  report.info("frame_ms_p99", quantile(latency_ms, 0.99));
  report.info("frame_ms_max", quantile(latency_ms, 1.0));
  report.info("latency_samples", static_cast<double>(latency_ms.size()));
  report.info("generator_lag_ms_p99", quantile(lag_ms, 0.99));
  report.info("generator_lag_samples", static_cast<double>(lag_ms.size()));
  report.info("host_stalls_over_5ms", static_cast<double>(stalls));
  report.info("stall_clock_reads", static_cast<double>(clock_reads));
  report.info("offered_frames_per_s", kStreams * kFps);
  report.info("latency_limit_ms_p90", 1e3 / kFps);
  report.count(scheduled, scheduled - totals.frames);
  report.check(totals.frames == scheduled, "every scheduled frame was produced");

  // Every session, rebuilt and replayed layer by layer, must reproduce
  // what the live run produced.
  Tracer tracer;
  Lockstep lockstep(&tracer);
  std::vector<const sim::PipelineResult*> live_results;
  for (int stream = 0; stream < kStreams; ++stream) {
    for (int part = 0; part < schedule.parts; ++part) {
      lockstep.add(schedule.specs[static_cast<std::size_t>(stream)]
                                 [static_cast<std::size_t>(part)],
                   false);
      live_results.push_back(&results[static_cast<std::size_t>(stream)]
                                     [static_cast<std::size_t>(part)]);
    }
  }
  lockstep.run_sequential(0.0, live_results.size());
  std::string why = lockstep.first_mismatch();
  bool same = lockstep.mismatches() == 0;
  for (std::size_t i = 0; i < live_results.size() && same; ++i) {
    same = same_result(lockstep.replay_result(i), *live_results[i], &why);
  }
  report.check(same, "layer replay of every live session equals its live "
                     "result (" + std::to_string(live_results.size()) +
                         " sessions)" + (same ? "" : ": " + why));
}

}  // namespace perfbench
