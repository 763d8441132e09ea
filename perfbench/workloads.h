// The benchmark's workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or per-layer metrics (traced run) and with the
// outcome of its output checks.
#pragma once

#include "harness.h"

namespace perfbench {

/// Closed-loop batch: the paper's evaluation grid on 4 sweep workers.
void run_paper_sweep(const Args& args, Report& report);

/// Closed-loop serving: a 96-session fleet on 3 shards with health,
/// observability and a /metrics scraper on.
void run_serve_fleet(const Args& args, Report& report);

/// Open-loop real time: 8 streams at 30 fps on one thread.
void run_live(const Args& args, Report& report);

/// Thread-local small integer naming the calling thread (per process).
int thread_ordinal();

/// Writes the tracer's spans to <trace_dir>/<workload>-seed<seed>.json when
/// a trace directory was given.
class Tracer;
void write_trace(const Args& args, const Tracer& tracer, Report& report);

}  // namespace perfbench
