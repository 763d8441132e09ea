// Multi-session serving: N concurrent StreamSessions over per-core shards.
//
// Each SessionSpec is self-contained — its own frame source, scheme,
// config, deterministically seeded loss-model factory, and obs metrics
// label — so sessions never share mutable state and the results are
// byte-identical at any worker count and any scheduling interleaving
// (tests/test_session_manager.cpp asserts 1/2/8 threads and several
// frames_per_slice values produce the same serialized reports;
// tests/test_sharded_serving.cpp stresses 512+ sessions at slice 1).
//
// Engine shape (DESIGN.md §15): one shard per worker thread, each owning
// two bounded lock-free MPMC queues (common/mpmc_queue.h) — `pending`
// holds admitted-but-not-yet-constructed session slots, `active` holds
// constructed sessions between slices. Sessions are pinned to a shard at
// admit time by rendezvous hash on label (sim/admission.h), construct
// lazily on first execution, requeue to their own shard after each slice,
// and are destroyed the moment they finish (arena and codec state are
// released mid-run, which is what lets a 10k-session fleet run in the
// memory of `threads * max_live_per_shard` sessions). A worker drains its
// own shard first and steals from a neighbour only when its queues are
// empty. Determinism survives all of it because the queues order
// *scheduling*, never results: each session's frame sequence is a pure
// function of its spec.
//
// Two scheduling modes:
//  - frames_per_slice == 0: each session runs to completion on its first
//    execution (throughput mode, minimal scheduling overhead; the paper's
//    batch sweeps, sim::run_parallel_sweep, run this way);
//  - frames_per_slice > 0: sessions advance K frames per execution and
//    requeue, so many more sessions than workers make progress
//    concurrently — the serving pattern a latency-bound deployment needs.
//
// Admission control (SessionManagerOptions::admission) gates entry:
// sheddable sessions are dropped under fleet health pressure or shard
// depth, and the per-shard live cap turns "10k sessions admitted" into a
// bounded-memory trickle. See sim/admission.h for the policy inputs.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/loss_model.h"
#include "sim/admission.h"
#include "sim/session.h"

namespace pbpair::sim {

/// Everything one hosted session needs. `make_loss` (nullable) is invoked
/// inside the worker so each session owns a freshly seeded model.
struct SessionSpec {
  SchemeSpec scheme;
  PipelineConfig config;
  FrameSource source;
  std::function<std::unique_ptr<net::LossModel>()> make_loss;
  /// obs metrics label ("session.<label>.*"); empty selects
  /// SessionManager::default_label(index, fleet size).
  std::string label;
  /// DEGRADED-eligible: admission control may shed this session under
  /// fleet pressure instead of serving it. Never shed when false.
  bool sheddable = false;
};

struct SessionManagerOptions {
  /// Worker threads == shards; <= 0 selects sweep_thread_count().
  int threads = 0;
  /// Frames per scheduled slice; 0 runs each session to completion in one
  /// execution. Results are identical either way.
  int frames_per_slice = 0;
  /// Admission policy; unset admits every session unconditionally (and
  /// leaves live-session construction uncapped), preserving the
  /// pre-admission behaviour bit for bit.
  std::optional<AdmissionConfig> admission;
};

/// Deterministic aggregate over a multi-session run, computed in session
/// order (never scheduling order). Shed sessions (empty results) are
/// excluded from every total.
struct SessionAggregate {
  std::uint64_t sessions = 0;
  std::uint64_t total_frames = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_bad_pixels = 0;
  std::uint64_t total_intra_mbs = 0;
  std::uint64_t concealed_mbs = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  double mean_psnr_db = 0.0;     // mean of per-session averages
  double encode_energy_j = 0.0;  // summed over sessions
  double tx_energy_j = 0.0;

  /// One-line JSON rendering with fixed field order and %.6f doubles —
  /// byte-identical for byte-identical results, with no length ceiling
  /// (10k-session counters used to truncate the old fixed buffer).
  std::string to_json() const;
};

class SessionManager {
 public:
  explicit SessionManager(std::vector<SessionSpec> specs);

  /// Label an unlabeled spec at `index` gets in a fleet of `count`:
  /// "s<index>" zero-padded to max(3, digits(count-1)) digits, so
  /// lexicographic label order equals numeric session order at any fleet
  /// size (a 10k fleet pads to 4+ digits; "s999" < "s1000" would not
  /// sort).
  static std::string default_label(std::size_t index, std::size_t count);

  /// Runs every admitted session to completion; results[i] belongs to
  /// specs[i] (a shed session leaves a default-constructed result). When
  /// `admission_report` is non-null it receives the per-spec decisions.
  std::vector<PipelineResult> run(const SessionManagerOptions& options = {},
                                  AdmissionReport* admission_report = nullptr);

  /// Aggregates results in index order, skipping shed (empty) entries.
  static SessionAggregate aggregate(const std::vector<PipelineResult>& results);

 private:
  std::vector<SessionSpec> specs_;
};

}  // namespace pbpair::sim
