// End-to-end output totals and the per-layer metrics shared by the three
// workloads: those read from PipelineResults, and those measured by
// stepping a StreamSession and its StreamReplay in lockstep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "replay.h"
#include "sim/pipeline.h"
#include "sim/session.h"
#include "tracer.h"

namespace perfbench {

/// Frames, bytes, joules and PSNR summed over results.
struct OutputTotals {
  std::uint64_t frames = 0;
  double bytes = 0.0;
  double energy_j = 0.0;
  double psnr_sum_db = 0.0;

  void add(const pbpair::sim::PipelineResult& r);
  /// mj_per_frame, psnr_db and bytes_per_frame.
  void report(Report& report) const;
};

/// The per-layer metrics every workload's traced run measures, which form
/// its result line (BENCHMARK.json's "per_layer"). The layer metrics only
/// some workloads exercise (FEC, CRC and fault stages, baseline policies,
/// sweep workers, shards, admission, the exporter) are printed in the
/// table and under "layers" in the detail line instead, so no result
/// carries a placeholder for a layer its workload never ran.
const std::vector<std::string>& layer_metrics();

/// codec.{sad_ops,me_searched,concealed}, energy.* and the packet counts
/// of net.*, read from the program's own result statistics.
void report_result_layers(
    Report& report,
    const std::vector<const pbpair::sim::PipelineResult*>& results);

/// Steps untraced StreamSessions and their traced replays frame by frame,
/// checks that each frame and each stream's totals agree, and accumulates
/// what the per-layer metrics need. A stream either times its layers into
/// `tracer` or times its refresh policy (StreamReplay explains why not
/// both), keeping its spans in a tracer of its own.
class Lockstep {
 public:
  explicit Lockstep(Tracer* tracer) : tracer_(tracer) {}

  /// Adds a stream; returns its index for step().
  std::size_t add(const StreamSpec& spec, bool time_policy,
                  const std::string& label = {});
  /// Steps frame `frame` of stream `stream` in both the session and the
  /// replay (alternating which goes first). False on a mismatch.
  bool step(std::size_t stream);
  bool done(std::size_t stream) const;
  /// Finishes a done stream: compares totals and joules, frees both.
  bool finish(std::size_t stream);

  /// Runs every added stream to the end, one after another, stopping
  /// between streams once `deadline_s` (now_s() clock) has passed and at
  /// least `at_least` streams have finished.
  void run_sequential(double deadline_s, std::size_t at_least = 1);

  std::uint64_t frames() const { return frames_; }
  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t streams_finished() const { return finished_; }
  /// Untraced step() time, and step count, of the layer-timed streams'
  /// sessions.
  double session_step_ns() const { return session_ns_; }
  std::uint64_t session_steps() const { return session_steps_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  const pbpair::sim::PipelineResult& replay_result(std::size_t stream) const {
    return streams_[stream].replay_result;
  }

  /// Policy hook time, calls and decisions per scheme family.
  struct PolicyTotals {
    double hook_ns = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t pre_me_intra = 0;
    std::uint64_t penalty_calls = 0;
  };
  const PolicyTotals& pbpair_policy() const { return pbpair_; }
  const PolicyTotals& resilience_policy() const { return resilience_; }
  std::uint64_t media_lost() const { return media_lost_; }
  std::uint64_t media_recovered() const { return media_recovered_; }

 private:
  struct Stream {
    std::unique_ptr<pbpair::sim::StreamSession> session;
    std::unique_ptr<StreamReplay> replay;
    pbpair::sim::SchemeKind kind;
    pbpair::sim::PipelineResult replay_result;
  };
  bool mismatch(const std::string& what);

  Tracer* tracer_;
  Tracer policy_tracer_;
  std::vector<Stream> streams_;
  std::uint64_t frames_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t finished_ = 0;
  double session_ns_ = 0.0;
  std::uint64_t session_steps_ = 0;
  std::string first_mismatch_;
  PolicyTotals pbpair_;
  PolicyTotals resilience_;
  std::uint64_t media_lost_ = 0;
  std::uint64_t media_recovered_ = 0;
};

/// The replay-side per-layer metrics (layer times, policy, copies, session
/// overhead, tracing overhead and unaccounted share). `copied_bytes` is the
/// copy-ledger delta over the lockstep phase, in which session and replay
/// make the same copies.
void report_replay_layers(Report& report, const Tracer& tracer,
                          const Lockstep& lockstep,
                          std::uint64_t copied_bytes);

}  // namespace perfbench
