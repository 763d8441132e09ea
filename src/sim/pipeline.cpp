#include "sim/pipeline.h"

#include <cmath>

#include "sim/parallel_sweep.h"
#include "sim/session.h"

namespace pbpair::sim {

PipelineResult run_pipeline(const FrameSource& source,
                            const SchemeSpec& scheme, net::LossModel* loss,
                            const PipelineConfig& config) {
  StreamSession session(source, scheme, loss, config);
  session.run_to_end();
  return session.take_result();
}

PipelineResult run_pipeline(const video::SyntheticSequence& sequence,
                            const SchemeSpec& scheme, net::LossModel* loss,
                            const PipelineConfig& config) {
  return run_pipeline(
      [&sequence](int i) { return sequence.frame_at(i); }, scheme, loss,
      config);
}

std::vector<double> calibrate_intra_th(const std::vector<SizeTarget>& targets,
                                       const core::PbpairConfig& base,
                                       const PipelineConfig& config,
                                       int iterations) {
  // Encoded size grows monotonically with Intra_Th (more intra MBs), so a
  // bisection on the lossless-channel size converges.
  struct Bisection {
    double lo = 0.0, hi = 1.0, best = 0.0;
    double best_err = -1.0;
    double mid() const { return 0.5 * (lo + hi); }
  };
  std::vector<Bisection> state(targets.size());
  for (int iter = 0; iter < iterations; ++iter) {
    std::vector<SweepTask> tasks(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      core::PbpairConfig candidate = base;
      candidate.intra_th = state[i].mid();
      tasks[i].scheme = SchemeSpec::pbpair(candidate);
      tasks[i].config = config;
      tasks[i].source = targets[i].source;
    }
    const std::vector<PipelineResult> results = run_parallel_sweep(tasks);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      Bisection& b = state[i];
      const double mid = b.mid();
      const std::uint64_t bytes = results[i].total_bytes;
      const std::uint64_t target = targets[i].target_bytes;
      const double err = std::abs(static_cast<double>(bytes) -
                                  static_cast<double>(target));
      if (b.best_err < 0 || err < b.best_err) {
        b.best_err = err;
        b.best = mid;
      }
      if (bytes > target) {
        b.hi = mid;
      } else {
        b.lo = mid;
      }
    }
  }
  std::vector<double> best;
  best.reserve(state.size());
  for (const Bisection& b : state) best.push_back(b.best);
  return best;
}

}  // namespace pbpair::sim
