#include "net/packetizer.h"

#include <algorithm>

#include "common/check.h"

namespace pbpair::net {

Packetizer::Packetizer(const PacketizerConfig& config, BufferArena* arena)
    : config_(config),
      arena_(arena != nullptr ? arena : &BufferArena::scratch()) {
  PB_CHECK(config.mtu >
           kHeaderWireSize + (config.crc ? kCrcTrailerSize : 0));
}

std::vector<Packet> Packetizer::packetize(const codec::EncodedFrame& frame) {
  PB_CHECK(!frame.gob_offsets.empty());
  // first_gob/num_gobs travel as uint8; a frame taller than 255 GOBs
  // (height > 4080) cannot be represented on the wire and must fail
  // loudly here rather than alias GOB indices at the receiver.
  PB_CHECK_MSG(frame.gob_offsets.size() <= 255,
               "frame has more than 255 GOBs; payload header cannot "
               "address them (reduce height or extend the wire format)");
  const std::size_t max_payload = config_.mtu - kHeaderWireSize -
                                  (config_.crc ? kCrcTrailerSize : 0);
  const int gobs = static_cast<int>(frame.gob_offsets.size());

  // Stage the frame's bitstream into the arena once; every payload below
  // is a zero-copy slice of this allocation. The pre-arena packetizer
  // copied each payload out of the frame individually.
  const BufferRef staged =
      arena_->copy(frame.bytes.data(), frame.bytes.size());

  auto gob_end = [&](int gob) -> std::size_t {
    return gob + 1 < gobs ? frame.gob_offsets[gob + 1] : frame.bytes.size();
  };

  std::vector<Packet> packets;
  auto push_packet = [&](int first_gob, int num_gobs, std::size_t begin,
                         std::size_t end) {
    Packet packet;
    packet.header.sequence = next_sequence_++;
    packet.header.timestamp = static_cast<std::uint32_t>(frame.frame_index);
    packet.header.ssrc = config_.ssrc;
    packet.header.frame_type =
        frame.type == codec::FrameType::kIntra ? 0 : 1;
    packet.header.qp = static_cast<std::uint8_t>(frame.qp);
    packet.header.first_gob = static_cast<std::uint8_t>(first_gob);
    packet.header.num_gobs = static_cast<std::uint8_t>(num_gobs);
    packet.crc_present = config_.crc;
    packet.payload = staged.slice(begin, end - begin);
    common::ledger_legacy(end - begin);
    packets.push_back(std::move(packet));
  };

  int gob = 0;
  while (gob < gobs) {
    const std::size_t begin = frame.gob_offsets[gob];
    if (gob_end(gob) - begin > max_payload) {
      // One GOB alone exceeds the MTU: split it across a head packet
      // (num_gobs = 1) and continuation packets (num_gobs = 0, same
      // first_gob) so no packet ever exceeds the configured wire size.
      // The depacketizer re-joins a continuation only onto its immediate
      // sequence predecessor; losing the head loses the GOB, exactly the
      // loss granularity IP fragmentation would have had.
      const std::size_t end = gob_end(gob);
      push_packet(gob, 1, begin, begin + max_payload);
      std::size_t offset = begin + max_payload;
      while (offset < end) {
        const std::size_t chunk = std::min(max_payload, end - offset);
        push_packet(gob, 0, offset, offset + chunk);
        offset += chunk;
      }
      ++gob;
      continue;
    }
    int last = gob;  // inclusive; always take at least one GOB
    while (last + 1 < gobs &&
           gob_end(last + 1) - begin <= max_payload) {
      ++last;
    }
    push_packet(gob, last - gob + 1, begin, gob_end(last));
    gob = last + 1;
  }
  packets.back().header.marker = true;
  return packets;
}

codec::ReceivedFrame depacketize(const std::vector<Packet>& packets,
                                 int frame_index) {
  // Robustness contract (DESIGN.md §11): `packets` is untrusted — any
  // header field may be damaged. Packets that do not belong to this frame
  // are dropped and counted, never asserted on; whatever survives is
  // handed to the decoder, which conceals the rest.
  codec::ReceivedFrame received;
  received.frame_index = frame_index;

  bool have_meta = false;
  // Continuation packets (num_gobs == 0) re-join an oversized GOB split
  // by the packetizer. One is accepted only immediately after its
  // predecessor in sequence for the same GOB; anything else (lost head,
  // reordered or duplicated fragment) is an orphan and is dropped.
  int continuation_gob = -1;
  std::uint16_t expected_continuation_seq = 0;

  for (const Packet& packet : packets) {
    if (packet.is_fec_repair()) {
      // A repair packet only reaches the depacketizer when no FEC decoder
      // ran (or damage forged the payload type); its payload is a FEC
      // symbol, not GOB data, so it is dropped — counted separately from
      // bad headers so the leak is visible in the metrics.
      ++received.dropped_stray_fec;
      continuation_gob = -1;
      continue;
    }
    if (packet.header.timestamp != static_cast<std::uint32_t>(frame_index)) {
      ++received.dropped_bad_header;
      continuation_gob = -1;
      continue;
    }
    if (packet.header.num_gobs == 0) {
      if (continuation_gob >= 0 &&
          packet.header.first_gob == continuation_gob &&
          packet.header.sequence == expected_continuation_seq &&
          !received.spans.empty()) {
        // Continuation slices of one staged frame are contiguous in the
        // arena, so this join usually just widens the span's view.
        received.spans.back().bytes.append(packet.payload);
        common::ledger_legacy(packet.payload.size());
        expected_continuation_seq =
            static_cast<std::uint16_t>(packet.header.sequence + 1);
      } else {
        ++received.dropped_orphan_continuation;
        continuation_gob = -1;
      }
      continue;
    }
    if (!have_meta) {
      have_meta = true;
      received.type = packet.header.frame_type == 0
                          ? codec::FrameType::kIntra
                          : codec::FrameType::kInter;
      received.qp = packet.header.qp;
    }
    codec::ReceivedFrame::GobSpan span;
    span.first_gob = packet.header.first_gob;
    span.bytes = packet.payload;  // refcount share, no bytes copied
    common::ledger_legacy(packet.payload.size());
    received.spans.push_back(std::move(span));
    // Only a single-GOB packet can be continued (the packetizer never
    // splits a multi-GOB payload).
    continuation_gob =
        packet.header.num_gobs == 1 ? packet.header.first_gob : -1;
    expected_continuation_seq =
        static_cast<std::uint16_t>(packet.header.sequence + 1);
  }

  received.any_data = !received.spans.empty();
  return received;
}

}  // namespace pbpair::net
