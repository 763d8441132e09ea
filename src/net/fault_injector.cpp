#include "net/fault_injector.h"


namespace pbpair::net {
namespace {

// RNG stream selector: keeps the injector's draws independent of every
// other consumer seeded from the same experiment seed.
constexpr std::uint64_t kFaultStream = 0xFA01'7D05'2005'0001ULL;

}  // namespace


FaultInjector::FaultInjector(const FaultInjectorConfig& config)
    : config_(config), rng_(config.seed, kFaultStream) {}

void FaultInjector::reset() {
  rng_ = common::Pcg32(config_.seed, kFaultStream);
  stats_ = FaultStats{};
}

bool FaultInjector::damage_packet(Packet* packet) {
  const bool corrupt_header = rng_.next_bernoulli(config_.p_header_corrupt);
  const bool flip_bits = rng_.next_bernoulli(config_.p_bit_flip);
  const bool truncate = rng_.next_bernoulli(config_.p_truncate);
  if (!corrupt_header && !flip_bits && !truncate) return true;

  // Copy-on-corrupt: only a packet actually selected for damage gets its
  // bytes materialized (and re-parsed into fresh storage below), so a
  // duplicated twin sharing the same payload ref is never scribbled on.
  std::vector<std::uint8_t> wire = serialize_packet(*packet);
  common::ledger_copied(packet->payload.size());
  common::ledger_legacy(packet->payload.size());

  if (corrupt_header) {
    const std::uint32_t byte = rng_.next_below(kHeaderWireSize);
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1 + rng_.next_below(255));
    wire[byte] ^= mask;
    stats_.headers_corrupted += 1;
  }
  if (flip_bits && wire.size() > kHeaderWireSize) {
    const int flips = 1 + static_cast<int>(rng_.next_below(static_cast<
        std::uint32_t>(config_.max_bit_flips < 1 ? 1 : config_.max_bit_flips)));
    const std::uint32_t payload_bits =
        static_cast<std::uint32_t>((wire.size() - kHeaderWireSize) * 8);
    for (int i = 0; i < flips; ++i) {
      const std::uint32_t bit = rng_.next_below(payload_bits);
      wire[kHeaderWireSize + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      stats_.bits_flipped += 1;
    }
  }
  if (truncate) {
    // Cut anywhere from an empty wire buffer to one byte short: header
    // truncation models a mangled datagram, payload truncation a cut GOB.
    const std::size_t keep = rng_.next_below(
        static_cast<std::uint32_t>(wire.size()));
    wire.resize(keep);
    stats_.payloads_truncated += 1;
  }

  Packet damaged;
  common::ledger_legacy(wire.size() > kHeaderWireSize
                            ? wire.size() - kHeaderWireSize
                            : 0);
  if (!parse_packet(wire, &damaged, config_.expect_crc)) {
    stats_.packets_dropped_unparseable += 1;
    return false;
  }
  *packet = std::move(damaged);
  return true;
}

std::vector<Packet> FaultInjector::apply(std::vector<Packet> packets) {
  std::vector<Packet> out;
  out.reserve(packets.size() + 2);
  for (Packet& packet : packets) {
    stats_.packets_seen += 1;
    const bool duplicate = rng_.next_bernoulli(config_.p_duplicate);
    if (!damage_packet(&packet)) continue;
    if (duplicate) {
      stats_.packets_duplicated += 1;
      common::ledger_legacy(packet.payload.size());
      out.push_back(packet);  // twin shares the payload ref
    }
    out.push_back(std::move(packet));
  }
  // Reordering pass: each packet may swap with its successor. Done on the
  // post-damage vector so duplicates can be displaced too.
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (rng_.next_bernoulli(config_.p_reorder)) {
      std::swap(out[i], out[i + 1]);
      stats_.packets_reordered += 1;
    }
  }
  return out;
}

}  // namespace pbpair::net
