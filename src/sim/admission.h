// Admission control and load shedding for the sharded session engine.
//
// The paper's controller degrades gracefully under pressure by spending
// fewer bits/joules per frame; the serving layer needs the same reflex at
// the fleet level. SessionAdmission sits in front of SessionManager::run()
// (and `pbpair serve`): every new session is pinned to a shard by
// rendezvous hash on its label, then admitted, queued, or shed based on
// two deterministic inputs — the per-shard depth of already-pinned
// sessions and the obs::HealthRegistry aggregate state sampled once at
// run start. DEGRADED-eligible (sheddable) sessions are shed before any
// CRITICAL shard accepts new work; non-sheddable sessions are never
// dropped, only queued behind the shard's live-session cap.
//
// Decisions are a pure function of (specs, config, starting registry
// state), evaluated serially in session-index order — so a fixed seed
// reproduces the exact accept/queue/shed pattern at any thread count
// (tests/test_sharded_serving.cpp asserts this).
//
// Outcomes are observable three ways: the AdmissionReport returned to the
// caller, the sim.admit.accepted / sim.admit.queued / sim.admit.shed
// counters SessionManager::run publishes from that report, and one
// kSessionShed flight-recorder event per shed session under the
// "admission" ring.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/health.h"

namespace pbpair::sim {

struct AdmissionConfig {
  /// Per-shard cap on concurrently-constructed sessions. Beyond it a new
  /// session is admitted but QUEUED: the engine defers building it until
  /// a live slot on its shard frees up (this is what keeps 10k admitted
  /// sessions from materializing 10k arenas at once). 0 = uncapped.
  std::size_t max_live_per_shard = 0;
  /// Per-shard pinned-depth watermark: a new session landing on a shard
  /// already holding this many is shed when sheddable, queued otherwise.
  /// 0 disables depth-based shedding.
  std::size_t shed_queue_depth = 0;
};

enum class AdmitDecision { kAccepted = 0, kQueued = 1, kShed = 2 };

/// Per-run admission outcome; decisions[i] belongs to spec i.
struct AdmissionReport {
  std::vector<AdmitDecision> decisions;
  std::size_t accepted = 0;
  std::size_t queued = 0;
  std::size_t shed = 0;
};

/// Shard pinning: highest-random-weight (rendezvous) hash of the session
/// label over `shards` buckets. Stable in both directions — adding a
/// shard moves only the sessions that rehash to it, and the same label
/// always lands on the same shard for a given shard count — and purely
/// label-driven, so pinning is deterministic in session order.
std::size_t rendezvous_shard(const std::string& label, std::size_t shards);

class SessionAdmission {
 public:
  explicit SessionAdmission(AdmissionConfig config);

  /// Samples the fleet aggregate from obs::HealthRegistry::global().
  /// Called once per run, BEFORE any new session executes, so every
  /// decision in the run sees the same fleet state.
  void sample_fleet();

  /// Decides for session `slot` (label `label`) targeting `shard` whose
  /// pinned depth is `pinned_depth`. On shed, appends a kSessionShed
  /// event to the "admission" flight ring.
  AdmitDecision admit(std::size_t slot, const std::string& label,
                      bool sheddable, std::size_t shard,
                      std::size_t pinned_depth);

  const AdmissionConfig& config() const { return config_; }
  const obs::HealthStateCounts& fleet() const { return fleet_; }

 private:
  AdmissionConfig config_;
  obs::HealthStateCounts fleet_;
};

}  // namespace pbpair::sim
