// The H.263-style frame encoder with pluggable intra-refresh policy.
//
// Macroblock layer (P-frame):
//   COD u(1)            1 = skipped (copy co-located reference MB)
//   if coded:
//     mode u(1)         0 = inter, 1 = intra
//     inter: mv_x se, mv_y se, CBP (Huffman), coded blocks (run/level/last)
//     intra: 6 blocks, each INTRADC u(8) + has-AC u(1) + AC events
//
// The encoder maintains the standard reconstruction loop: prediction
// references the *reconstructed* previous frame (what a lossless-channel
// decoder would hold), so encoder and decoder stay in lockstep until a
// transmission loss makes them diverge — which is exactly the error-
// propagation mechanism the refresh policies fight.
#pragma once

#include <memory>
#include <vector>

#include "codec/bitstream.h"
#include "codec/quant.h"
#include "codec/motion_search.h"
#include "codec/refresh_policy.h"
#include "codec/syntax.h"
#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

struct EncoderConfig {
  int width = video::kQcifWidth;
  int height = video::kQcifHeight;
  int qp = 10;  // quantizer, 1..31
  MotionSearchConfig search{};

  /// In-loop deblocking (codec/deblock.h). MUST match the decoder's
  /// setting, or their reconstruction loops diverge.
  bool deblocking = false;
};

class Encoder {
 public:
  /// `policy` must outlive the encoder; it is consulted for every frame.
  Encoder(const EncoderConfig& config, RefreshPolicy* policy);

  /// Encodes the next frame of the sequence.
  EncodedFrame encode_frame(const video::YuvFrame& frame);

  /// The encoder's reconstruction of the last encoded frame (what a
  /// decoder on a lossless channel would output).
  const video::YuvFrame& reconstructed() const { return recon_; }

  /// Cumulative metered operations (the energy model's input).
  const energy::OpCounters& ops() const { return ops_; }

  const EncoderConfig& config() const { return config_; }

  /// Changes the quantizer for subsequent frames (rate-control hook).
  void set_qp(int qp) {
    PB_CHECK(qp >= kMinQp && qp <= kMaxQp);
    config_.qp = qp;
  }

  /// Restarts the sequence (frame counter, references, counters, policy).
  void reset();

 private:
  struct MbCoding {
    MbMode mode = MbMode::kSkip;
    MotionVector mv{};                // half-pel units
    std::int16_t blocks[6][64] = {};  // quantized levels, raster order
    int cbp = 0;                      // bit b => block b has nonzero levels
    // Motion-compensated predictions, formed once in encode_mb_inter and
    // reused by reconstruct_mb (valid for kInter only).
    std::uint8_t pred_y[16 * 16] = {};
    std::uint8_t pred_u[8 * 8] = {};
    std::uint8_t pred_v[8 * 8] = {};
  };

  void encode_mb_intra(const video::YuvFrame& frame, int mb_x, int mb_y,
                       MbCoding* coding);
  void encode_mb_inter(const video::YuvFrame& frame, int mb_x, int mb_y,
                       MotionVector mv, MbCoding* coding);
  void write_mb(BitWriter& writer, const MbCoding& coding, bool intra_frame,
                MotionVector* mv_predictor);
  void reconstruct_mb(const MbCoding& coding, int mb_x, int mb_y);

  EncoderConfig config_;
  RefreshPolicy* policy_;
  int frame_index_ = 0;

  video::YuvFrame recon_;       // reconstruction of the current frame
  video::YuvFrame ref_;         // reconstruction of the previous frame
  video::YuvFrame prev_original_;
  bool have_prev_original_ = false;

  energy::OpCounters ops_;
};

}  // namespace pbpair::codec
