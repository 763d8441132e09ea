// paper_sweep: the paper's evaluation grid (Figs. 5-6, §4.3-4.4) as a
// closed-loop batch on sim::run_parallel_sweep with 4 workers. Full-search
// ME dominates it; observability, health, shards and the FEC/CRC packet
// stack are bypassed.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/buffer.h"
#include "layers.h"
#include "net/loss_model.h"
#include "sim/parallel_sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = pbpair::sim;

constexpr int kWorkers = 4;
constexpr int kLossSeeds = 4;  // 3 clips x 5 schemes x 4 = 60 tasks a round
constexpr double kPlr = 0.10;

std::vector<sim::SchemeSpec> paper_schemes() {
  pbpair::core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = kPlr;
  return {sim::SchemeSpec::no_resilience(), sim::SchemeSpec::gop(3),
          sim::SchemeSpec::air(24), sim::SchemeSpec::pgop(3),
          sim::SchemeSpec::pbpair(pbpair)};
}

sim::PipelineConfig paper_config() {
  sim::PipelineConfig config;
  config.frames = kClipFrames;
  config.encoder.qp = 10;
  config.encoder.search.strategy = pbpair::codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;
  config.packetizer.mtu = 1400;
  return config;
}

/// Grid order: loss seed, then clip, then scheme, so neighbouring tasks
/// differ in cost and every scheme appears early in the list.
std::vector<StreamSpec> make_grid(const ClipSet& clips, std::uint64_t seed) {
  std::vector<StreamSpec> grid;
  const std::vector<sim::SchemeSpec> schemes = paper_schemes();
  for (int loss = 0; loss < kLossSeeds; ++loss) {
    for (std::size_t clip = 0; clip < clips.clips.size(); ++clip) {
      for (const sim::SchemeSpec& scheme : schemes) {
        StreamSpec spec;
        spec.scheme = scheme;
        spec.config = paper_config();
        spec.clip = clips.clips[clip];
        const std::uint64_t loss_seed =
            mix_seed(seed, 1000 + static_cast<std::uint64_t>(grid.size()));
        spec.make_loss = [loss_seed] {
          return std::make_unique<pbpair::net::UniformFrameLoss>(kPlr,
                                                                 loss_seed);
        };
        grid.push_back(std::move(spec));
      }
    }
  }
  return grid;
}

/// Frame-start timestamps of one task, taken in its FrameSource.
struct TaskClock {
  std::vector<std::int64_t> start_ns = std::vector<std::int64_t>(kClipFrames);
  int thread = -1;
};

std::vector<sim::SweepTask> make_tasks(const std::vector<StreamSpec>& grid,
                                       std::vector<TaskClock>* clocks) {
  std::vector<sim::SweepTask> tasks;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    TaskClock* clock = &(*clocks)[i];
    sim::SweepTask task;
    task.scheme = grid[i].scheme;
    task.config = grid[i].config;
    task.make_loss = grid[i].make_loss;
    task.source = clip_source(grid[i].clip, 0, [clock](int frame) {
      clock->start_ns[static_cast<std::size_t>(frame)] = now_ns();
      if (frame == 0) clock->thread = thread_ordinal();
    });
    tasks.push_back(std::move(task));
  }
  return tasks;
}

/// Per-frame service times (ms): the gap between consecutive frame starts
/// of one task, which always runs on one worker.
void add_frame_times(const std::vector<TaskClock>& clocks,
                     std::vector<double>* frame_ms) {
  for (const TaskClock& clock : clocks) {
    for (std::size_t f = 0; f + 1 < clock.start_ns.size(); ++f) {
      frame_ms->push_back(
          static_cast<double>(clock.start_ns[f + 1] - clock.start_ns[f]) /
          1e6);
    }
  }
}

/// Busy and tail-idle shares of one round's workers, from the task clocks.
/// A worker is busy from its first frame start to its last frame's end
/// (estimated as the last start plus that task's median frame time).
void report_worker_shares(const std::vector<TaskClock>& clocks,
                          std::int64_t round_start, std::int64_t round_end,
                          Report& report) {
  std::map<int, std::pair<std::int64_t, std::int64_t>> spans;
  for (const TaskClock& clock : clocks) {
    std::vector<double> gaps;
    for (std::size_t f = 0; f + 1 < clock.start_ns.size(); ++f) {
      gaps.push_back(
          static_cast<double>(clock.start_ns[f + 1] - clock.start_ns[f]));
    }
    const std::int64_t end =
        clock.start_ns.back() + static_cast<std::int64_t>(quantile(gaps, 0.5));
    auto [it, fresh] =
        spans.try_emplace(clock.thread, clock.start_ns.front(), end);
    if (!fresh) {
      it->second.first = std::min(it->second.first, clock.start_ns.front());
      it->second.second = std::max(it->second.second, end);
    }
  }
  const double wall = static_cast<double>(round_end - round_start);
  std::vector<double> busy;
  std::vector<double> tail;
  for (const auto& [thread, span] : spans) {
    busy.push_back(100.0 * static_cast<double>(span.second - span.first) /
                   wall);
    tail.push_back(100.0 *
                   static_cast<double>(std::max<std::int64_t>(
                       0, round_end - span.second)) /
                   wall);
  }
  report.metric("sim.sweep_busy_pct", mean(busy), "%", busy.size());
  report.metric("sim.tail_idle_pct", mean(tail), "%", tail.size());
}

/// Checks that per-task results do not depend on the worker count: three
/// tasks (one per clip, different schemes, rotated by seed) rerun on one
/// worker must reproduce the 4-worker results.
void check_worker_count(const std::vector<sim::SweepTask>& tasks,
                        const std::vector<sim::PipelineResult>& reference,
                        std::uint64_t seed, Report& report) {
  const std::size_t schemes = paper_schemes().size();
  std::vector<std::size_t> picks;
  for (std::size_t clip = 0; clip < 3; ++clip) {
    picks.push_back(clip * schemes + (seed + clip * 2) % schemes);
  }
  std::vector<sim::SweepTask> subset;
  for (std::size_t i : picks) subset.push_back(tasks[i]);
  sim::SweepOptions options;
  options.threads = 1;
  const std::vector<sim::PipelineResult> serial =
      sim::run_parallel_sweep(subset, options);
  bool same = true;
  std::string why;
  for (std::size_t k = 0; k < picks.size() && same; ++k) {
    same = same_result(serial[k], reference[picks[k]], &why);
  }
  report.check(same, "sweep results independent of worker count (3 tasks, 1 "
                     "vs 4 workers)" + (same ? "" : ": " + why));
}

/// Replays grid tasks layer by layer, in lockstep with fresh sessions,
/// until `deadline_s`; every replay must match its session and the
/// sweep's result for the same task.
void replay_tasks(const std::vector<StreamSpec>& grid,
                  const std::vector<sim::PipelineResult>& reference,
                  double deadline_s, Lockstep* lockstep, Report& report) {
  // Each scheme's tasks alternate between timing layers and timing the
  // refresh policy, so both appear within the first two clips, which are
  // always replayed.
  std::map<sim::SchemeKind, int> seen;
  for (const StreamSpec& spec : grid) {
    lockstep->add(spec, seen[spec.scheme.kind]++ % 2 == 1);
  }
  lockstep->run_sequential(deadline_s, 2 * paper_schemes().size());
  report.check(lockstep->mismatches() == 0,
               "layer replay equals StreamSession frame by frame (" +
                   std::to_string(lockstep->streams_finished()) + " tasks)" +
                   (lockstep->mismatches() == 0
                        ? ""
                        : ": " + lockstep->first_mismatch()));
  bool same = true;
  std::string why;
  for (std::size_t i = 0; i < lockstep->streams_finished() && same; ++i) {
    same = same_result(lockstep->replay_result(i), reference[i], &why);
  }
  report.check(same, "layer replay equals the 4-worker sweep result" +
                         (same ? "" : ": " + why));
}

}  // namespace

void run_paper_sweep(const Args& args, Report& report) {
  const ClipSet clips = make_clips(args.seed);
  const std::vector<StreamSpec> grid = make_grid(clips, args.seed);
  std::vector<TaskClock> clocks(grid.size());
  const std::vector<sim::SweepTask> tasks = make_tasks(grid, &clocks);
  const double first_setup_s = since_start_s();
  const std::uint64_t frames_per_round =
      static_cast<std::uint64_t>(tasks.size()) * kClipFrames;
  sim::SweepOptions options;
  options.threads = kWorkers;

  if (args.trace) {
    report.metric("video.synth_ms_per_frame",
                  clips.synth_ns / static_cast<double>(clips.synth_frames) /
                      1e6,
                  "ms", clips.synth_frames);
    warm_cores(kWorkers);
    const std::int64_t round_start = now_ns();
    const std::vector<sim::PipelineResult> results =
        sim::run_parallel_sweep(tasks, options);
    const std::int64_t round_end = now_ns();
    report_worker_shares(clocks, round_start, round_end, report);
    std::vector<const sim::PipelineResult*> views;
    for (const sim::PipelineResult& r : results) views.push_back(&r);
    report_result_layers(report, views);

    // The single-thread replay doubles as the sweep's serial baseline.
    Tracer tracer;
    Lockstep lockstep(&tracer);
    const auto ledger_before = pbpair::common::copy_ledger();
    replay_tasks(grid, results, now_s() + args.seconds, &lockstep, report);
    const auto ledger_after = pbpair::common::copy_ledger();
    report_replay_layers(report, tracer, lockstep,
                         ledger_after.copied_bytes - ledger_before.copied_bytes);
    const double serial_fps = static_cast<double>(lockstep.session_steps()) /
                              (lockstep.session_step_ns() / 1e9);
    const double sweep_fps = static_cast<double>(frames_per_round) /
                             (static_cast<double>(round_end - round_start) /
                              1e9);
    report.info("serial_frames_per_s", serial_fps);
    report.info("sweep_frames_per_s", sweep_fps);
    report.info("sweep_speedup", sweep_fps / serial_fps);
    check_worker_count(tasks, results, args.seed, report);
    report.count(lockstep.frames(), 0);
    write_trace(args, tracer, report);
    return;
  }

  NoiseProbe noise;
  noise.begin();
  warm_cores(kWorkers);
  std::vector<sim::PipelineResult> first;
  std::vector<double> frame_ms;
  std::uint64_t frames = 0;
  std::uint64_t missing = 0;
  int rounds = 0;
  bool rounds_agree = true;
  const double start = now_s();
  double elapsed = 0.0;
  std::vector<double> round_s;
  do {
    const double round_start = now_s();
    std::vector<sim::PipelineResult> results =
        sim::run_parallel_sweep(tasks, options);
    const double round_end = now_s();
    elapsed = round_end - start;
    round_s.push_back(round_end - round_start);
    ++rounds;
    add_frame_times(clocks, &frame_ms);
    for (std::size_t i = 0; i < results.size(); ++i) {
      frames += results[i].frames.size();
      missing += kClipFrames - std::min<std::size_t>(kClipFrames,
                                                     results[i].frames.size());
      if (!first.empty()) {
        rounds_agree = rounds_agree && same_result(results[i], first[i], nullptr);
      }
    }
    if (first.empty()) first = std::move(results);
  } while (elapsed < args.seconds);
  noise.end(report);
  const double peak_mb = peak_rss_mb();

  report.metric("setup_s", setup_median_s(first_setup_s, [&] {
                  const ClipSet c = make_clips(args.seed);
                  const std::vector<StreamSpec> g = make_grid(c, args.seed);
                  std::vector<TaskClock> k(g.size());
                  make_tasks(g, &k);
                }),
                "s", kSetupReps);
  // Each round is the whole grid, last wave included; the median round
  // drops a round that a host stall or a slow thread start hit.
  report.metric("frames_per_s",
                static_cast<double>(frames_per_round) / quantile(round_s, 0.5),
                "frames/s", frames);
  report.metric("frame_ms_p50", quantile(frame_ms, 0.5), "ms",
                frame_ms.size());
  report.metric("frame_ms_p90", quantile(frame_ms, 0.9), "ms",
                frame_ms.size());
  OutputTotals totals;
  for (const sim::PipelineResult& r : first) totals.add(r);
  totals.report(report);
  report.metric("peak_rss_mb", peak_mb, "MB");
  report.info("rounds", rounds);
  report.info("round_s_min", quantile(round_s, 0.0));
  report.info("round_s_max", quantile(round_s, 1.0));
  report.info("overall_frames_per_s", static_cast<double>(frames) / elapsed);
  report.info("tasks_per_round", static_cast<double>(tasks.size()));
  report.count(static_cast<std::uint64_t>(rounds) * frames_per_round, missing);

  report.check(missing == 0, "every task produced all its frames");
  report.check(rounds_agree, "every round reproduces the first round");
  check_worker_count(tasks, first, args.seed, report);
  // One task replayed layer by layer (PBPAIR, clip rotated by seed).
  const std::size_t pick = (args.seed % 3) * paper_schemes().size() + 4;
  Tracer tracer;
  Lockstep lockstep(&tracer);
  lockstep.add(grid[pick], false);
  lockstep.run_sequential(0.0);
  std::string why;
  const bool same = lockstep.mismatches() == 0 &&
                    same_result(lockstep.replay_result(0), first[pick], &why);
  report.check(same, "layer replay of one task equals its sweep result" +
                         (same ? "" : ": " + lockstep.first_mismatch() + why));
}

}  // namespace perfbench
