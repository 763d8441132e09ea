#include "codec/decoder.h"

#include "codec/block_coder.h"
#include "codec/block_io.h"
#include "codec/dct.h"
#include "codec/deblock.h"
#include "codec/golomb.h"
#include "codec/kernels/kernels.h"
#include "codec/mc.h"
#include "codec/quant.h"
#include "codec/vlc_tables.h"
#include "common/math_util.h"
#include "obs/trace.h"

namespace pbpair::codec {

Decoder::Decoder(const DecoderConfig& config)
    : config_(config),
      recon_(config.width, config.height),
      ref_(config.width, config.height),
      prev_mv_field_(static_cast<std::size_t>(config.width / 16) *
                     (config.height / 16)),
      mv_field_(prev_mv_field_.size()) {
  ref_.fill_gray();
  recon_.fill_gray();
}

void Decoder::reset() {
  ref_.fill_gray();
  recon_.fill_gray();
  std::fill(prev_mv_field_.begin(), prev_mv_field_.end(), MotionVector{});
  std::fill(mv_field_.begin(), mv_field_.end(), MotionVector{});
  ops_.reset();
  concealed_mbs_ = 0;
  corrupt_gobs_ = 0;
  truncated_gobs_ = 0;
}

void Decoder::conceal_mb(int mb_x, int mb_y) {
  const std::size_t idx =
      static_cast<std::size_t>(mb_y) * (config_.width / 16) + mb_x;
  switch (config_.concealment) {
    case ConcealmentMode::kFreezeGray: {
      for (int y = 0; y < 16; ++y) {
        std::uint8_t* row = recon_.y().row(mb_y * 16 + y) + mb_x * 16;
        for (int x = 0; x < 16; ++x) row[x] = 128;
      }
      for (int y = 0; y < 8; ++y) {
        std::uint8_t* u = recon_.u().row(mb_y * 8 + y) + mb_x * 8;
        std::uint8_t* v = recon_.v().row(mb_y * 8 + y) + mb_x * 8;
        for (int x = 0; x < 8; ++x) u[x] = v[x] = 128;
      }
      break;
    }
    case ConcealmentMode::kMotionCompensated: {
      // Temporal motion reuse: predict with the vector the co-located MB
      // used last frame — on coherent motion (pans) this tracks the scene
      // instead of smearing it.
      MotionVector mv = prev_mv_field_[idx];
      std::uint8_t pred_y[16 * 16], pred_u[8 * 8], pred_v[8 * 8];
      predict_block(ref_.y(), mb_x * 32 + mv.x, mb_y * 32 + mv.y, 16, 16,
                    pred_y, ops_);
      MotionVector cmv = chroma_mv(mv);
      predict_block(ref_.u(), mb_x * 16 + cmv.x, mb_y * 16 + cmv.y, 8, 8,
                    pred_u, ops_);
      predict_block(ref_.v(), mb_x * 16 + cmv.x, mb_y * 16 + cmv.y, 8, 8,
                    pred_v, ops_);
      for (int y = 0; y < 16; ++y) {
        std::uint8_t* row = recon_.y().row(mb_y * 16 + y) + mb_x * 16;
        for (int x = 0; x < 16; ++x) row[x] = pred_y[y * 16 + x];
      }
      for (int y = 0; y < 8; ++y) {
        std::uint8_t* u = recon_.u().row(mb_y * 8 + y) + mb_x * 8;
        std::uint8_t* v = recon_.v().row(mb_y * 8 + y) + mb_x * 8;
        for (int x = 0; x < 8; ++x) {
          u[x] = pred_u[y * 8 + x];
          v[x] = pred_v[y * 8 + x];
        }
      }
      mv_field_[idx] = mv;  // keep tracking through repeated losses
      break;
    }
    case ConcealmentMode::kCopyPrevious:
      copy_region(ref_.y(), mb_x * 16, mb_y * 16, recon_.y(), mb_x * 16,
                  mb_y * 16, 16, 16);
      copy_region(ref_.u(), mb_x * 8, mb_y * 8, recon_.u(), mb_x * 8,
                  mb_y * 8, 8, 8);
      copy_region(ref_.v(), mb_x * 8, mb_y * 8, recon_.v(), mb_x * 8,
                  mb_y * 8, 8, 8);
      break;
  }
  ++concealed_mbs_;
}

void Decoder::conceal_row(int mb_y) {
  for (int mx = 0; mx < config_.width / 16; ++mx) conceal_mb(mx, mb_y);
}

bool Decoder::decode_mb(BitReader& reader, FrameType type, int qp, int mb_x,
                        int mb_y, MotionVector* mv_predictor) {
  bool intra_mb = type == FrameType::kIntra;
  MotionVector mv{};
  int cbp = 0x3F;

  if (type == FrameType::kInter) {
    bool cod = false;
    if (!reader.get_bit(&cod)) return false;
    if (cod) {
      // Skipped MB: copy co-located from reference.
      copy_region(ref_.y(), mb_x * 16, mb_y * 16, recon_.y(), mb_x * 16,
                  mb_y * 16, 16, 16);
      copy_region(ref_.u(), mb_x * 8, mb_y * 8, recon_.u(), mb_x * 8,
                  mb_y * 8, 8, 8);
      copy_region(ref_.v(), mb_x * 8, mb_y * 8, recon_.v(), mb_x * 8,
                  mb_y * 8, 8, 8);
      ops_.mc_pixels += 256 + 2 * 64;
      *mv_predictor = MotionVector{};
      mv_field_[static_cast<std::size_t>(mb_y) * (config_.width / 16) + mb_x] =
          MotionVector{};
      return true;
    }
    bool mode_intra = false;
    if (!reader.get_bit(&mode_intra)) return false;
    intra_mb = mode_intra;
    if (!intra_mb) {
      std::int32_t dx = 0, dy = 0;
      if (!get_se(reader, &dx) || !get_se(reader, &dy)) return false;
      mv = MotionVector{mv_predictor->x + dx, mv_predictor->y + dy};
      // Validate: the floor reference block must lie inside the frame
      // (half-pel interpolation only clamps on its +1 edge reads).
      int fx = mb_x * 16 + halfpel_floor(mv.x);
      int fy = mb_y * 16 + halfpel_floor(mv.y);
      if (fx < 0 || fx + 16 > config_.width || fy < 0 ||
          fy + 16 > config_.height) {
        return false;
      }
      *mv_predictor = mv;
      if (!cbp_vlc().decode(reader, &cbp)) return false;
    } else {
      *mv_predictor = MotionVector{};
    }
  }
  mv_field_[static_cast<std::size_t>(mb_y) * (config_.width / 16) + mb_x] =
      intra_mb ? MotionVector{} : mv;

  std::int16_t levels[64];
  std::int16_t spatial[64];
  const int lx = mb_x * 16;
  const int ly = mb_y * 16;

  if (intra_mb) {
    for (int b = 0; b < 6; ++b) {
      video::Plane& dst =
          b < 4 ? recon_.y() : (b == 4 ? recon_.u() : recon_.v());
      int bx = b < 4 ? lx + (b % 2) * 8 : mb_x * 8;
      int by = b < 4 ? ly + (b / 2) * 8 : mb_y * 8;
      if (!decode_block(reader, levels, /*intra=*/true)) return false;
      dequantize_block(levels, qp, /*intra=*/true, ops_);
      inverse_dct_8x8(levels, spatial);
      ops_.idct_blocks += 1;
      store_block(dst, bx, by, spatial);
    }
    return true;
  }

  // Inter MB: form predictions exactly like the encoder (codec/mc.h).
  std::uint8_t pred_y[16 * 16];
  std::uint8_t pred_u[8 * 8];
  std::uint8_t pred_v[8 * 8];
  predict_block(ref_.y(), lx * 2 + mv.x, ly * 2 + mv.y, 16, 16, pred_y, ops_);
  const MotionVector cmv = chroma_mv(mv);
  predict_block(ref_.u(), mb_x * 8 * 2 + cmv.x, mb_y * 8 * 2 + cmv.y, 8, 8,
                pred_u, ops_);
  predict_block(ref_.v(), mb_x * 8 * 2 + cmv.x, mb_y * 8 * 2 + cmv.y, 8, 8,
                pred_v, ops_);

  for (int b = 0; b < 6; ++b) {
    video::Plane& dst = b < 4 ? recon_.y() : (b == 4 ? recon_.u() : recon_.v());
    const std::uint8_t* pred = b < 4 ? pred_y : (b == 4 ? pred_u : pred_v);
    int stride = b < 4 ? 16 : 8;
    int ox = b < 4 ? (b % 2) * 8 : 0;
    int oy = b < 4 ? (b / 2) * 8 : 0;
    int bx = b < 4 ? lx + (b % 2) * 8 : mb_x * 8;
    int by = b < 4 ? ly + (b / 2) * 8 : mb_y * 8;
    if ((cbp >> b) & 1) {
      if (!decode_block(reader, levels, /*intra=*/false)) return false;
      dequantize_block(levels, qp, /*intra=*/false, ops_);
      inverse_dct_8x8(levels, spatial);
      ops_.idct_blocks += 1;
      kernels::active().add_pred_8x8(dst.row(by) + bx, dst.width(),
                                     pred + oy * stride + ox, stride,
                                     spatial);
    } else {
      for (int row = 0; row < 8; ++row) {
        std::uint8_t* d = dst.row(by + row) + bx;
        const std::uint8_t* p = pred + (oy + row) * stride + ox;
        for (int col = 0; col < 8; ++col) d[col] = p[col];
      }
    }
  }
  return true;
}

void Decoder::decode_span(const ReceivedFrame::GobSpan& span, FrameType type,
                          int qp, std::vector<std::uint8_t>* row_done) {
  const int mb_cols = config_.width / 16;
  const int mb_rows = config_.height / 16;
  BitReader reader(span.bytes.data(), span.bytes.size());
  int gob = span.first_gob;
  while (gob < mb_rows && !reader.exhausted()) {
    std::uint32_t header = 0;
    if (!reader.get_bits(8, &header)) return;
    if (static_cast<int>(header) != gob) {
      // Sync mismatch: the span is corrupt from here on; stop parsing it.
      ++corrupt_gobs_;
      return;
    }
    MotionVector mv_predictor{};  // differential-MV state resets per GOB
    for (int mx = 0; mx < mb_cols; ++mx) {
      if (!decode_mb(reader, type, qp, mx, gob, &mv_predictor)) {
        // Parse failure mid-GOB: conceal the rest of this row and give up
        // on the span (we lost entropy-coder sync).
        ++truncated_gobs_;
        for (int cx = mx; cx < mb_cols; ++cx) conceal_mb(cx, gob);
        (*row_done)[gob] = 1;
        return;
      }
    }
    (*row_done)[gob] = 1;
    reader.align();
    ++gob;
  }
}

const video::YuvFrame& Decoder::decode_frame(const ReceivedFrame& received) {
  const int mb_rows = config_.height / 16;
  std::vector<std::uint8_t> row_done(mb_rows, 0);
  // A corrupt packet header can claim any qp byte; clamp into the codec's
  // legal range so dequantization and deblocking stay well-defined.
  const int qp = common::clamp(received.qp, kMinQp, kMaxQp);

  obs::ScopedSpan span_("decoder.decode_frame", received.frame_index, "frame");

  if (received.any_data) {
    for (const ReceivedFrame::GobSpan& span : received.spans) {
      if (span.first_gob < 0 || span.first_gob >= mb_rows) continue;
      decode_span(span, received.type, qp, &row_done);
    }
  }
  for (int row = 0; row < mb_rows; ++row) {
    if (!row_done[row]) conceal_row(row);
  }
  if (config_.deblocking) deblock_frame(recon_, qp);
  ops_.frames += 1;
  ref_ = recon_;
  prev_mv_field_ = mv_field_;
  return recon_;
}

const video::YuvFrame& Decoder::decode_frame(const EncodedFrame& encoded) {
  ReceivedFrame received;
  received.frame_index = encoded.frame_index;
  received.type = encoded.type;
  received.qp = encoded.qp;
  received.any_data = true;
  ReceivedFrame::GobSpan span;
  span.first_gob = 0;
  PB_CHECK(!encoded.gob_offsets.empty() && encoded.gob_offsets[0] > 0);
  span.bytes.assign(
      encoded.bytes.data() + encoded.gob_offsets[0],
      encoded.bytes.data() + encoded.bytes.size());
  received.spans.push_back(std::move(span));
  return decode_frame(received);
}

}  // namespace pbpair::codec
