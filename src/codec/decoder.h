// The H.263-style decoder with GOB-level loss concealment.
//
// The decoder consumes `ReceivedFrame`s assembled by the network layer:
// whichever GOBs (MB rows) arrived are parsed and reconstructed; missing
// GOBs — and entirely lost frames — are concealed by copying the
// co-located pixels from the decoder's previous output (the paper's
// "simple copy scheme", §4.1). After a loss, the decoder's reference
// diverges from the encoder's, and the error propagates through inter
// prediction until intra refresh cleans it — the effect the refresh
// policies are designed to bound.
#pragma once

#include <vector>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "codec/syntax.h"
#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

/// What the decoder does with macroblocks it never received (paper §3.1.3:
/// the concealment choice is what the similarity factor models).
enum class ConcealmentMode {
  kCopyPrevious,        // copy the co-located MB (the paper's §4.1 choice)
  kMotionCompensated,   // reuse the co-located MB's previous motion vector
  kFreezeGray,          // blank to mid-gray (models a concealment-less decoder)
};

struct DecoderConfig {
  int width = video::kQcifWidth;
  int height = video::kQcifHeight;
  ConcealmentMode concealment = ConcealmentMode::kCopyPrevious;
  /// In-loop deblocking; must match the encoder's setting (stream-level
  /// agreement, like frame geometry).
  bool deblocking = false;
};

class Decoder {
 public:
  explicit Decoder(const DecoderConfig& config);

  /// Decodes (with concealment) the next frame. Returns the reconstructed
  /// output; the reference is updated for subsequent frames.
  ///
  /// Robustness contract (DESIGN.md §11, enforced by `pbpair fuzz` and
  /// tests/test_robustness.cpp): `received` is UNTRUSTED. Any byte
  /// sequence in any span, any qp, any frame type, any first_gob yields a
  /// full-size concealed frame — never undefined behaviour, an
  /// out-of-bounds access, or an abort — and the decoder stays usable for
  /// the next frame. Out-of-range qp is clamped to [kMinQp, kMaxQp];
  /// out-of-range first_gob spans are ignored; parse failures conceal the
  /// rest of the GOB.
  const video::YuvFrame& decode_frame(const ReceivedFrame& received);

  /// Convenience for lossless-channel use: decodes an EncodedFrame as if
  /// every GOB arrived.
  const video::YuvFrame& decode_frame(const EncodedFrame& encoded);

  const video::YuvFrame& current() const { return recon_; }
  const energy::OpCounters& ops() const { return ops_; }

  /// Count of MBs concealed so far (lost GOBs and parse failures).
  std::uint64_t concealed_mbs() const { return concealed_mbs_; }
  /// GOB spans abandoned so far at a GOB header that did not match.
  std::uint64_t corrupt_gobs() const { return corrupt_gobs_; }
  /// GOBs cut short so far by an MB that failed to parse.
  std::uint64_t truncated_gobs() const { return truncated_gobs_; }

  void reset();

 private:
  /// Parses and reconstructs one GOB span; conceals MBs it cannot parse.
  void decode_span(const ReceivedFrame::GobSpan& span, FrameType type, int qp,
                   std::vector<std::uint8_t>* row_done);
  /// Parses one MB at (mb_x, mb_y); returns false on bitstream error.
  /// `mv_predictor` carries the differential-MV state within one GOB.
  bool decode_mb(BitReader& reader, FrameType type, int qp, int mb_x,
                 int mb_y, MotionVector* mv_predictor);
  void conceal_mb(int mb_x, int mb_y);
  void conceal_row(int mb_y);

  DecoderConfig config_;
  video::YuvFrame recon_;  // frame being built / last output
  video::YuvFrame ref_;    // previous output
  // Per-MB vectors of the previous decoded frame (half-pel), used by
  // motion-compensated concealment; zero vectors for intra/skip/concealed.
  std::vector<MotionVector> prev_mv_field_;
  std::vector<MotionVector> mv_field_;
  energy::OpCounters ops_;
  std::uint64_t concealed_mbs_ = 0;
  std::uint64_t corrupt_gobs_ = 0;
  std::uint64_t truncated_gobs_ = 0;
};

}  // namespace pbpair::codec
