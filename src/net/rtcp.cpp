#include "net/rtcp.h"

#include "common/check.h"

namespace pbpair::net {
namespace {

constexpr std::uint8_t kRtcpVersion = 2;
constexpr std::uint8_t kPacketTypeRr = 201;  // RFC 3550
constexpr std::size_t kRrWireSize = 8 + 24;  // header + one report block
// Profile-specific extension carrying the corruption split (RFC 3550
// §6.4.1 allows trailing extensions covered by the length field).
constexpr std::size_t kCorruptionExtSize = 8;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

std::vector<std::uint8_t> serialize_receiver_report(const ReceiverReport& rr) {
  const bool corruption_split =
      rr.fraction_corrupted != 0 || rr.cumulative_corrupted != 0;
  const std::size_t wire_size =
      kRrWireSize + (corruption_split ? kCorruptionExtSize : 0);
  std::vector<std::uint8_t> wire;
  wire.reserve(wire_size);
  // Header: V=2, P=0, RC=1 | PT=201 | length (in 32-bit words minus one).
  wire.push_back((kRtcpVersion << 6) | 1);
  wire.push_back(kPacketTypeRr);
  put_u16(wire, static_cast<std::uint16_t>(wire_size / 4 - 1));
  put_u32(wire, rr.reporter_ssrc);
  // Report block.
  put_u32(wire, rr.reportee_ssrc);
  wire.push_back(rr.fraction_lost);
  wire.push_back(static_cast<std::uint8_t>((rr.cumulative_lost >> 16) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>((rr.cumulative_lost >> 8) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(rr.cumulative_lost & 0xFF));
  put_u32(wire, rr.highest_sequence);  // extended highest sequence
  put_u32(wire, 0);                    // interarrival jitter (not modeled)
  put_u32(wire, 0);                    // last SR
  put_u32(wire, 0);                    // delay since last SR
  if (corruption_split) {
    wire.push_back(rr.fraction_corrupted);
    wire.push_back(
        static_cast<std::uint8_t>((rr.cumulative_corrupted >> 16) & 0xFF));
    wire.push_back(
        static_cast<std::uint8_t>((rr.cumulative_corrupted >> 8) & 0xFF));
    wire.push_back(static_cast<std::uint8_t>(rr.cumulative_corrupted & 0xFF));
    put_u32(wire, 0);  // reserved
  }
  return wire;
}

bool parse_receiver_report(const std::vector<std::uint8_t>& wire,
                           ReceiverReport* rr) {
  if (wire.size() < kRrWireSize) return false;
  if ((wire[0] >> 6) != kRtcpVersion) return false;
  if ((wire[0] & 0x1F) != 1) return false;  // exactly one report block
  if (wire[1] != kPacketTypeRr) return false;
  rr->reporter_ssrc = get_u32(&wire[4]);
  rr->reportee_ssrc = get_u32(&wire[8]);
  rr->fraction_lost = wire[12];
  rr->cumulative_lost = (static_cast<std::uint32_t>(wire[13]) << 16) |
                        (static_cast<std::uint32_t>(wire[14]) << 8) |
                        wire[15];
  rr->highest_sequence = static_cast<std::uint16_t>(get_u32(&wire[16]) & 0xFFFF);
  // Corruption-split extension: present when the length field covers it.
  // Reports without it (and inputs with trailing junk the length field
  // does not claim) parse exactly as before the split existed.
  rr->fraction_corrupted = 0;
  rr->cumulative_corrupted = 0;
  const std::size_t words =
      static_cast<std::size_t>((wire[2] << 8) | wire[3]) + 1;
  if (words * 4 >= kRrWireSize + kCorruptionExtSize &&
      wire.size() >= kRrWireSize + kCorruptionExtSize) {
    rr->fraction_corrupted = wire[32];
    rr->cumulative_corrupted = (static_cast<std::uint32_t>(wire[33]) << 16) |
                               (static_cast<std::uint32_t>(wire[34]) << 8) |
                               wire[35];
  }
  return true;
}

ReceiverReport ReceiverReportBuilder::build(
    const PlrEstimator& estimator, std::uint16_t highest_sequence,
    std::uint64_t corrupted_interval, std::uint64_t cumulative_corrupted) {
  ReceiverReport rr;
  rr.reporter_ssrc = reporter_ssrc_;
  rr.reportee_ssrc = reportee_ssrc_;
  rr.cumulative_lost = static_cast<std::uint32_t>(estimator.lost() & 0xFFFFFF);
  rr.highest_sequence = highest_sequence;
  rr.cumulative_corrupted =
      static_cast<std::uint32_t>(cumulative_corrupted & 0xFFFFFF);

  std::uint64_t lost_delta = estimator.lost() - last_lost_;
  std::uint64_t recv_delta = estimator.received() - last_received_;
  std::uint64_t expected_delta = lost_delta + recv_delta;
  if (expected_delta > 0) {
    rr.fraction_lost = static_cast<std::uint8_t>(
        (lost_delta * 256) / expected_delta > 255
            ? 255
            : (lost_delta * 256) / expected_delta);
    rr.fraction_corrupted = static_cast<std::uint8_t>(
        (corrupted_interval * 256) / expected_delta > 255
            ? 255
            : (corrupted_interval * 256) / expected_delta);
  }
  last_lost_ = estimator.lost();
  last_received_ = estimator.received();
  return rr;
}

}  // namespace pbpair::net
