// Multi-session serving throughput at scale (DESIGN.md §9, §15).
//
// Drives the sharded session engine up a scaling curve that reaches
// 10,000 concurrent sessions — clips rotating over the paper's three,
// per-session seeded uniform frame loss at PLR 10%, health tracking on
// like `pbpair serve` — and measures sessions/sec, frames/sec, and
// per-shard p50/p99 frame latency (extracted from the engine's log2-bucket
// sim.shard.<k>.frame_ns histograms) at each point. Sessions construct
// lazily under an admission live-cap of 64 per shard, so the 10k point
// runs in the memory of `shards * 64` sessions, not 10k arenas.
//
// Frames per session taper with the session count (48 -> 12 -> 4) to keep
// the wall time of the big points sane; every point reports its own
// frames value and the regression gate compares rows by name, so the
// taper never mixes unlike configurations.
//
// The JSON report carries a "sessions_rows" array gated by
// `check_bench_regression` against the committed BENCH_sessions.json:
// sessions_per_sec has a relative floor and p99_frame_ms a relative
// ceiling, both 4.5x in obs::bench_gates() (log2 buckets quantize p99 to
// power-of-two plateaus, so the factor must allow bucket jumps). A
// determinism cross-check reruns the smallest count serial and in 3-frame
// slices and compares the aggregate JSON byte-for-byte, so the report
// doubles as a scheduling-independence smoke.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "net/loss_model.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "sim/session_manager.h"

using namespace pbpair;

namespace {

using Clock = std::chrono::steady_clock;

// Frames per session at a given fleet size: full serving runs for the
// small points, short slices at the 1k/10k scale where the interesting
// axis is scheduling and admission, not clip length.
int frames_for(int sessions, int base_frames) {
  if (sessions <= 256) return base_frames;
  if (sessions <= 2048) return std::min(base_frames, 12);
  return std::min(base_frames, 4);
}

// Sessions recycle labels from a fixed pool: per-session obs counters
// and health gauges are keyed by label, so unique labels at 10k sessions
// would register ~160k metrics (tens of MB of registry, a multi-MB JSON
// report). 256 labels keep the namespace bounded while still spreading
// rendezvous pinning evenly across any realistic shard count.
constexpr int kLabelPool = 256;

std::vector<sim::SessionSpec> make_specs(int sessions, int frames) {
  std::vector<sim::SessionSpec> specs;
  specs.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    const video::SequenceKind kind = bench::kPaperClips[i % 3];
    sim::SessionSpec spec;
    spec.label = sim::format("b%03d", i % kLabelPool);
    core::PbpairConfig pbpair;
    pbpair.intra_th = 0.9;
    pbpair.plr = 0.10;
    spec.scheme = sim::SchemeSpec::pbpair(pbpair);
    spec.config = bench::paper_pipeline_config(frames);
    // Health tracking on, like `pbpair serve`: the bench then measures the
    // serving path with its real telemetry cost included.
    spec.config.health = obs::HealthConfig{};
    spec.source = bench::clip_source(kind, frames);
    const std::uint64_t seed = 2005 + static_cast<std::uint64_t>(i);
    spec.make_loss = [seed] {
      return std::make_unique<net::UniformFrameLoss>(0.10, seed);
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string shard_hist_name(int shard) {
  return sim::format("sim.shard.%02d.frame_ns", shard);
}

}  // namespace

int main() {
  bench::enable_observability("many_sessions");
  // Serving runs are short per session: the interesting axis is the
  // session count, not the clip length.
  const int base_frames = std::min(bench::bench_frames(), 48);
  int max_sessions = 10000;
  if (const char* env = std::getenv("PBPAIR_BENCH_SESSIONS")) {
    int n = std::atoi(env);
    if (n >= 1) max_sessions = std::max(n, 4);  // >= 3 distinct counts
  }

  std::vector<int> counts;
  for (int n : {1, 8, 64, 256, 1024, 10000}) {
    if (n < max_sessions) counts.push_back(n);
  }
  counts.push_back(max_sessions);
  if (counts.size() < 3) {  // BENCH_sessions.json needs >= 3 points
    counts.insert(counts.begin() + 1, std::max(2, max_sessions / 2));
  }

  const int threads = common::default_thread_count();
  const int slice = 4;  // serving mode: sessions interleave 4 frames/turn
  std::printf(
      "=== Multi-session serving (base %d frames/session, %d shards, "
      "slice %d) ===\n\n",
      base_frames, threads, slice);
  for (int n : counts) {
    bench::cached_clip(bench::kPaperClips[(n - 1) % 3],
                       frames_for(n, base_frames));
  }

  sim::Table table({"sessions", "frames", "shards", "wall_ms",
                    "frames_per_sec", "sessions_per_sec", "p50_ms", "p99_ms",
                    "mean_PSNR_dB"});
  std::string points;
  std::string rows;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const int n = counts[c];
    const int frames = frames_for(n, base_frames);
    sim::SessionManager manager(make_specs(n, frames));
    sim::SessionManagerOptions options;
    options.threads = threads;
    options.frames_per_slice = slice;
    // The live cap is what keeps 10k admitted sessions from materializing
    // 10k arenas: each shard constructs at most 64 at a time.
    sim::AdmissionConfig admission;
    admission.max_live_per_shard = 64;
    options.admission = admission;

    obs::HealthRegistry::global().clear();
    for (int k = 0; k < threads; ++k) {
      obs::Registry::global().histogram(shard_hist_name(k)).reset();
    }
    const Clock::time_point start = Clock::now();
    std::vector<sim::PipelineResult> results = manager.run(options);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Final health-state distribution over the label pool (the registry
    // keeps the most recent session per label, so this samples up to
    // kLabelPool sessions — informational, never gated).
    int health_counts[3] = {0, 0, 0};
    for (const auto& session : obs::HealthRegistry::global().sessions()) {
      const int s = static_cast<int>(session->snapshot().state);
      if (s >= 0 && s < 3) ++health_counts[s];
    }

    // Per-shard frame-latency quantiles from the engine's log2-bucket
    // histograms; the point-level p99 is the worst shard's (bounded p99
    // per shard is the claim, so the gate watches the maximum).
    std::string shard_json;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    for (int k = 0; k < threads; ++k) {
      const obs::Histogram& hist =
          obs::Registry::global().histogram(shard_hist_name(k));
      const double shard_p50 =
          obs::histogram_quantile_ns(hist, 0.50) / 1e6;
      const double shard_p99 =
          obs::histogram_quantile_ns(hist, 0.99) / 1e6;
      if (shard_p50 > p50_ms) p50_ms = shard_p50;
      if (shard_p99 > p99_ms) p99_ms = shard_p99;
      shard_json += sim::format(
          "%s{\"shard\": %d, \"frames\": %llu, \"p50_ms\": %.3f, "
          "\"p99_ms\": %.3f}",
          k > 0 ? ", " : "", k,
          static_cast<unsigned long long>(hist.count()), shard_p50,
          shard_p99);
    }

    sim::SessionAggregate agg = sim::SessionManager::aggregate(results);
    const double fps = static_cast<double>(agg.total_frames) / wall_s;
    const double sps = static_cast<double>(agg.sessions) / wall_s;
    table.add_row({sim::format("%d", n), sim::format("%d", frames),
                   sim::format("%d", threads),
                   sim::format("%.0f", wall_s * 1e3),
                   sim::format("%.1f", fps), sim::format("%.2f", sps),
                   sim::format("%.3f", p50_ms), sim::format("%.3f", p99_ms),
                   sim::format("%.2f", agg.mean_psnr_db)});
    points += sim::format(
        "    {\"sessions\": %d, \"frames\": %d, \"shards\": %d, "
        "\"wall_s\": %.4f, \"frames_per_sec\": %.2f, "
        "\"sessions_per_sec\": %.3f, "
        "\"health\": {\"healthy\": %d, \"degraded\": %d, \"critical\": %d}, "
        "\"shard_latency\": [%s], "
        "\"aggregate\": %s}%s\n",
        n, frames, threads, wall_s, fps, sps, health_counts[0],
        health_counts[1], health_counts[2], shard_json.c_str(),
        agg.to_json().c_str(), c + 1 < counts.size() ? "," : "");
    rows += sim::format(
        "    {\"name\": \"n%d\", \"sessions_per_sec\": %.3f, "
        "\"frames_per_sec\": %.2f, \"p50_frame_ms\": %.3f, "
        "\"p99_frame_ms\": %.3f}%s\n",
        n, sps, fps, p50_ms, p99_ms, c + 1 < counts.size() ? "," : "");
  }
  table.print();
  bench::maybe_write_csv(table, "many_sessions");

  // Determinism cross-check: smallest count, rerun serial and in 3-frame
  // slices — the aggregate must not depend on threads or interleaving.
  const int check_frames = frames_for(counts.front(), base_frames);
  sim::SessionManagerOptions serial;
  serial.threads = 1;
  sim::SessionManagerOptions sliced;
  sliced.threads = threads;
  sliced.frames_per_slice = 3;
  const std::string agg_serial =
      sim::SessionManager::aggregate(
          sim::SessionManager(make_specs(counts.front(), check_frames))
              .run(serial))
          .to_json();
  const std::string agg_sliced =
      sim::SessionManager::aggregate(
          sim::SessionManager(make_specs(counts.front(), check_frames))
              .run(sliced))
          .to_json();
  const bool deterministic = agg_serial == agg_sliced;
  std::printf("\naggregate identical serial vs %d-thread sliced: %s\n",
              threads, deterministic ? "yes" : "NO - INVARIANT BROKEN");

  std::string payload = sim::format(
      "\"base_frames_per_session\": %d,\n  \"shards\": %d,\n"
      "  \"deterministic\": %s,\n  \"sessions_rows\": [\n",
      base_frames, threads, deterministic ? "true" : "false");
  payload += rows;
  payload += "  ],\n  \"points\": [\n";
  payload += points;
  payload += "  ]";
  bench::write_json_report("sessions", payload);
  return deterministic ? 0 : 1;
}
