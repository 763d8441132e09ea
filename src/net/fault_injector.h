// Deterministic adversarial fault injection for the packet stream.
//
// The loss models (net/loss_model.h) only ever DROP packets; real networks
// also deliver damaged ones — flipped bits, truncated payloads, corrupted
// headers, duplicates, and reordered bursts. FaultInjector models that
// damage as a seeded, composable channel stage: it sits between the lossy
// channel and the depacketizer (StreamSession runs it after transmit when
// PipelineConfig::faults is set) and rewrites the delivered packet
// vector at the WIRE level — each fault serializes the packet, damages the
// bytes, and re-parses them, so a corruption that breaks the RTP framing
// drops the packet exactly like a real receiver would.
//
// Every fault class has an independent per-packet probability and all
// randomness comes from one PCG32 stream, so a (seed, packet sequence)
// pair always produces the same damage — failures found by `pbpair fuzz`
// or a flaky soak run replay exactly. With all probabilities zero the
// injector is never constructed and the pipeline is byte-identical to a
// build without it (tests/test_fault_injector.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/packet.h"

namespace pbpair::net {

struct FaultInjectorConfig {
  std::uint64_t seed = 1;

  // Per-packet probabilities, each drawn independently (a packet can be
  // duplicated AND bit-flipped). All zero == injector disabled.
  double p_bit_flip = 0.0;        // flip 1..max_bit_flips random payload bits
  double p_truncate = 0.0;        // cut the payload at a random length
  double p_header_corrupt = 0.0;  // XOR one random byte of the wire header
  double p_duplicate = 0.0;       // deliver the packet twice
  double p_reorder = 0.0;         // swap the packet with its successor

  int max_bit_flips = 8;          // bits flipped per bit-flip event (1..N)

  /// Re-parse damaged wire bytes with CRC verification (set by the
  /// session when WireConfig::crc is on). Purely a parse-side flag: it
  /// changes no RNG draw, so seeded damage replays identically with or
  /// without CRC framing.
  bool expect_crc = false;

  bool enabled() const {
    return p_bit_flip > 0.0 || p_truncate > 0.0 || p_header_corrupt > 0.0 ||
           p_duplicate > 0.0 || p_reorder > 0.0;
  }
};

/// Damage bookkeeping. StreamSession publishes each frame's change as the
/// net.fault.* obs counters, so `pbpair monitor` can show live damage rates.
struct FaultStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t bits_flipped = 0;          // individual bits, not events
  std::uint64_t payloads_truncated = 0;
  std::uint64_t headers_corrupted = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_reordered = 0;     // adjacent swaps performed
  std::uint64_t packets_dropped_unparseable = 0;  // damage broke RTP framing
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectorConfig& config);

  /// Damages one frame's delivered packets in transmission order. The
  /// returned vector may be shorter (framing-destroying corruption drops
  /// the packet), longer (duplication), or reordered.
  std::vector<Packet> apply(std::vector<Packet> packets);

  const FaultStats& stats() const { return stats_; }
  const FaultInjectorConfig& config() const { return config_; }

  /// Restores the seeded RNG and clears stats (replays identically).
  void reset();

 private:
  /// Applies byte-level damage to one packet; returns false when the
  /// damage made the wire bytes unparseable (caller drops the packet).
  bool damage_packet(Packet* packet);

  FaultInjectorConfig config_;
  common::Pcg32 rng_;
  FaultStats stats_;
};

}  // namespace pbpair::net
