#include "sim/admission.h"

#include <cstdint>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace pbpair::sim {
namespace {

// FNV-1a-style 64-bit hash of the label bytes; the per-shard weight mixes
// it with the shard index through a splitmix64 finalizer. No wall clock, no
// pointers — the weight is a pure function of (label, shard). The seed is
// not FNV's offset basis (14695981039346656037), so this is not FNV-1a; it
// stays because changing it would re-pin every session's shard.
std::uint64_t label_hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

obs::FlightRecorder* admission_ring() {
  // find-then-create: create() resets an existing ring, and shed history
  // should survive repeated runs within one process.
  obs::FlightRecorder* ring = obs::FlightRegistry::global().find("admission");
  if (ring == nullptr) {
    ring = obs::FlightRegistry::global().create("admission");
  }
  return ring;
}

}  // namespace

std::size_t rendezvous_shard(const std::string& label, std::size_t shards) {
  PB_CHECK(shards > 0);
  if (shards == 1) return 0;
  const std::uint64_t hash = label_hash(label);
  std::size_t best = 0;
  std::uint64_t best_weight = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::uint64_t weight = mix64(hash ^ mix64(k));
    if (k == 0 || weight > best_weight) {
      best = k;
      best_weight = weight;
    }
  }
  return best;
}

SessionAdmission::SessionAdmission(AdmissionConfig config)
    : config_(config) {}

void SessionAdmission::sample_fleet() {
  fleet_ = obs::HealthRegistry::global().state_counts();
}

AdmitDecision SessionAdmission::admit(std::size_t slot,
                                      const std::string& label,
                                      bool sheddable, std::size_t shard,
                                      std::size_t pinned_depth) {
  AdmitDecision decision = AdmitDecision::kAccepted;

  // Health-driven shedding considers only DEGRADED-eligible sessions; a
  // non-sheddable session rides the queue path no matter how sick the
  // fleet is. The fleet is pressed while any session is CRITICAL (shed
  // DEGRADED-eligible work before a critical shard takes more) or every
  // session is at least DEGRADED.
  const bool fleet_pressed =
      fleet_.critical > 0 || (fleet_.total() > 0 && fleet_.healthy == 0);
  if (sheddable && fleet_pressed) {
    decision = AdmitDecision::kShed;
  } else if (config_.shed_queue_depth > 0 &&
             pinned_depth >= config_.shed_queue_depth) {
    decision =
        sheddable ? AdmitDecision::kShed : AdmitDecision::kQueued;
  } else if (config_.max_live_per_shard > 0 &&
             pinned_depth >= config_.max_live_per_shard) {
    // Admitted, but the shard's live cap means it waits for a slot.
    decision = AdmitDecision::kQueued;
  }

  if (decision == AdmitDecision::kShed) {
    admission_ring()->record(obs::FlightEvent::kSessionShed, -1,
                             static_cast<std::int64_t>(slot),
                             static_cast<std::int64_t>(shard));
    PB_LOG_WARN("admission: shed session %zu (%s) targeting shard %zu "
                "(depth %zu, fleet %d/%d/%d)",
                slot, label.c_str(), shard, pinned_depth, fleet_.healthy,
                fleet_.degraded, fleet_.critical);
  }
  return decision;
}

}  // namespace pbpair::sim
