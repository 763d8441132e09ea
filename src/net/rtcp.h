// Minimal RTCP receiver reports (RFC 3550 RR subset).
//
// The paper's §3.2/§5 extension needs "proper interfacing mechanisms
// between the codec and the network": the receiver periodically reports its
// measured loss back to the sender, which feeds PBPAIR's α and the
// Intra_Th controller. This implements the wire format for that feedback
// path — fraction lost, cumulative lost, highest sequence received — so the
// examples exercise a realistic loop instead of telepathy.
#pragma once

#include <cstdint>
#include <vector>

#include "net/feedback.h"

namespace pbpair::net {

struct ReceiverReport {
  std::uint32_t reporter_ssrc = 0;
  std::uint32_t reportee_ssrc = 0;
  /// Fraction of packets lost since the previous report, as the RFC's
  /// fixed-point u8 (loss_fraction / 256). When CRC framing is on this is
  /// the UNUSABLE-packet fraction — wire losses plus packets dropped as
  /// corrupted — because both appear as sequence gaps to the estimator;
  /// it is the erasure rate the FEC window must survive.
  std::uint8_t fraction_lost = 0;
  /// Cumulative packets lost (24-bit in the RFC; we keep 32).
  std::uint32_t cumulative_lost = 0;
  std::uint16_t highest_sequence = 0;

  /// Corruption split (CRC wire format only): the portion of the interval
  /// loss that was CRC-verified corruption rather than true wire loss,
  /// same u8/256 fixed point. Zero when CRC framing is off, which keeps
  /// the serialized report byte-identical to the pre-CRC layout.
  std::uint8_t fraction_corrupted = 0;
  std::uint32_t cumulative_corrupted = 0;

  double fraction_lost_as_double() const {
    return static_cast<double>(fraction_lost) / 256.0;
  }
};

/// Serializes to the RFC 3550 RR layout (8-byte header + 1 report block;
/// jitter/LSR/DLSR fields are zero — we do not model timing). A nonzero
/// corruption split appends one 8-byte profile-specific extension word
/// pair [fraction_corrupted u8 | cumulative_corrupted u24 | reserved u32]
/// and bumps the RTCP length field accordingly; an all-zero split emits
/// the classic 32-byte report.
std::vector<std::uint8_t> serialize_receiver_report(const ReceiverReport& rr);

/// Parses a serialized report. Returns false on malformed input.
bool parse_receiver_report(const std::vector<std::uint8_t>& wire,
                           ReceiverReport* rr);

/// Builds a report from the estimator state. `since_last` resets the
/// per-interval loss fraction bookkeeping (call with the same estimator
/// between reports).
class ReceiverReportBuilder {
 public:
  ReceiverReportBuilder(std::uint32_t reporter_ssrc,
                        std::uint32_t reportee_ssrc)
      : reporter_ssrc_(reporter_ssrc), reportee_ssrc_(reportee_ssrc) {}

  /// Snapshot the estimator into a report; interval fraction is computed
  /// against the previous snapshot. `corrupted_interval` is the number of
  /// CRC-failed packets the receiver dropped since the last report (they
  /// are part of the estimator's loss count); `cumulative_corrupted` the
  /// running total. Both default to zero = no corruption split on the
  /// wire.
  ReceiverReport build(const PlrEstimator& estimator,
                       std::uint16_t highest_sequence,
                       std::uint64_t corrupted_interval = 0,
                       std::uint64_t cumulative_corrupted = 0);

 private:
  std::uint32_t reporter_ssrc_;
  std::uint32_t reportee_ssrc_;
  std::uint64_t last_lost_ = 0;
  std::uint64_t last_received_ = 0;
};

}  // namespace pbpair::net
