// EncodedFrame <-> packets.
//
// A frame that fits in one MTU travels in a single packet (the paper's
// setup); larger frames — typically GOP's I-frames — are fragmented at GOB
// boundaries, each fragment carrying its GOB range in the payload header so
// it is independently decodable (RFC 2190 mode B style).
#pragma once

#include <vector>

#include "codec/syntax.h"
#include "net/packet.h"

namespace pbpair::net {

struct PacketizerConfig {
  std::size_t mtu = 1400;       // max wire size per packet (header incl.)
  std::uint32_t ssrc = 0x50425041;  // "PBPA"
  /// Stamp every outgoing packet with a CRC64 trailer (raises the RTP X
  /// bit and spends kCrcTrailerSize of the MTU per packet).
  bool crc = false;
};

class Packetizer {
 public:
  /// `arena` backs the staged frame bytes every payload slices into; null
  /// falls back to the process-wide scratch arena. A per-session arena
  /// (sim::StreamSession owns one) keeps slab reuse session-local.
  explicit Packetizer(const PacketizerConfig& config,
                      BufferArena* arena = nullptr);

  /// Splits one encoded frame into >= 1 packets, none exceeding the MTU.
  /// GOB boundaries are never broken; a GOB larger than the MTU is split
  /// into a head packet (num_gobs = 1) plus continuation packets
  /// (num_gobs = 0, same first_gob) that depacketize() re-joins — loss
  /// granularity stays per-GOB because a continuation without its exact
  /// sequence predecessor is dropped. Frames with more than 255 GOBs
  /// cannot be addressed by the uint8 payload header and PB_CHECK-fail.
  std::vector<Packet> packetize(const codec::EncodedFrame& frame);

  void reset() { next_sequence_ = 0; }

 private:
  PacketizerConfig config_;
  BufferArena* arena_;
  std::uint16_t next_sequence_ = 0;
};

/// Reassembles whatever packets of one frame arrived into the decoder's
/// input. `packets` is UNTRUSTED: packets whose timestamp does not match
/// `frame_index` are dropped and counted (ReceivedFrame::dropped_bad_header),
/// orphan continuations and stray repair packets likewise — never an
/// abort. Pass an empty vector for a fully lost frame (frame_index then
/// tells the decoder which frame to conceal).
codec::ReceivedFrame depacketize(const std::vector<Packet>& packets,
                                 int frame_index);

}  // namespace pbpair::net
