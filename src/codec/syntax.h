// Bitstream-level frame representations shared by encoder, decoder, and
// the network layer.
//
// Layout of an encoded frame:
//   picture header : frame_index u(8), type u(1), qp u(5), byte-align
//   per MB row (one GOB per row), each starting byte-aligned:
//     gob header   : gob_index u(8)
//     mb_cols macroblocks (see encoder.cpp for the MB layer)
//
// GOBs start byte-aligned so the packetizer can fragment a frame at GOB
// boundaries without touching the entropy-coded payload, and each GOB is
// independently decodable given the picture-level fields (frame index,
// type, QP) that the RTP-style packet header repeats — this mirrors RFC
// 2190 mode B packetization of H.263.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/motion.h"
#include "common/buffer.h"

namespace pbpair::codec {

enum class FrameType : std::uint8_t {
  kIntra,  // I-frame: every MB intra
  kInter,  // P-frame: per-MB skip / inter / intra
};

enum class MbMode : std::uint8_t {
  kSkip,   // COD=1: copy co-located MB from the reference
  kInter,  // motion-compensated prediction + residual
  kIntra,  // standalone intra coding (the refresh mechanism)
};

/// Per-MB encoding outcome, consumed by refresh policies (PBPAIR's
/// correctness update needs modes, vectors, and SADs) and by the harness
/// for statistics.
struct MbEncodeRecord {
  MbMode mode = MbMode::kSkip;
  MotionVector mv{};            // valid for kInter (kSkip implies (0,0))
  std::int64_t sad_mv = -1;     // SAD of the chosen vector; -1 if no search
  std::int64_t sad_zero = -1;   // SAD of the co-located candidate; -1 if no search
  std::int64_t sad_self = -1;   // deviation from own mean; -1 if not computed
  bool pre_me_intra = false;    // intra forced before ME (ME skipped)
  std::uint32_t bits = 0;       // bits this MB contributed
};

/// A fully encoded frame plus the side metadata the pipeline needs.
struct EncodedFrame {
  int frame_index = 0;
  FrameType type = FrameType::kIntra;
  int qp = 0;
  int mb_cols = 0;
  int mb_rows = 0;

  std::vector<std::uint8_t> bytes;
  /// Byte offset of each GOB (== MB row) within `bytes`. Size mb_rows.
  std::vector<std::uint32_t> gob_offsets;
  std::vector<MbEncodeRecord> mb_records;  // size mb_cols * mb_rows

  std::size_t size_bytes() const { return bytes.size(); }
  int intra_mb_count() const {
    int n = 0;
    for (const MbEncodeRecord& r : mb_records) {
      if (r.mode == MbMode::kIntra) ++n;
    }
    return n;
  }
};

/// What the receiver managed to assemble for one frame: the picture-level
/// fields plus whichever GOBs arrived. A completely lost frame has
/// `any_data == false`.
struct ReceivedFrame {
  int frame_index = 0;
  FrameType type = FrameType::kIntra;
  int qp = 0;
  bool any_data = false;

  struct GobSpan {
    int first_gob = 0;
    // Contiguous GOBs starting at first_gob. An arena-backed slice: the
    // depacketizer hands out views into the delivered packet payloads
    // instead of copying the bitstream a third time.
    common::BufferRef bytes;
  };
  std::vector<GobSpan> spans;

  // Packets the depacketizer dropped while assembling this frame: wrong
  // timestamp, orphan continuation, FEC repair with no FEC decoder.
  std::uint32_t dropped_bad_header = 0;
  std::uint32_t dropped_orphan_continuation = 0;
  std::uint32_t dropped_stray_fec = 0;
};

}  // namespace pbpair::codec
