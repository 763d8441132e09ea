// Parallel fan-out of independent pipeline runs.
//
// Every figure/table benchmark is a grid of (scheme, PLR, seed) points,
// and each point is a completely self-contained pipeline run — the sweeps
// are embarrassingly parallel. A sweep is a SessionManager run in
// throughput mode (sim/session_manager.h): every task is one session, run
// to completion by the shard workers. The loss model is created INSIDE
// the worker from a deterministic factory (per-task seed), so results are
// byte-identical at any thread count. tests/test_parallel_sweep.cpp
// asserts this at 1, 2, and 8 threads.
#pragma once

#include <vector>

#include "sim/session_manager.h"

namespace pbpair::sim {

/// One sweep point. A null loss factory — or a factory returning null —
/// runs the lossless channel. Left unlabeled, task i runs as session
/// SessionManager::default_label(i, tasks.size()).
using SweepTask = SessionSpec;

struct SweepOptions {
  /// Worker threads; <= 0 selects sweep_thread_count().
  int threads = 0;
};

/// PBPAIR_THREADS when it parses to >= 1, else hardware concurrency, else
/// 1. The one thread-count rule of sweeps and SessionManager.
int sweep_thread_count();

/// Runs all tasks on min(threads, tasks.size()) shard workers; results[i]
/// belongs to tasks[i]. An empty task list returns an empty vector.
std::vector<PipelineResult> run_parallel_sweep(
    const std::vector<SweepTask>& tasks, const SweepOptions& options = {});

}  // namespace pbpair::sim
