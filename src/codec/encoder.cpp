#include "codec/encoder.h"

#include "codec/block_coder.h"
#include "codec/block_io.h"
#include "codec/dct.h"
#include "codec/deblock.h"
#include "codec/golomb.h"
#include "codec/kernels/kernels.h"
#include "codec/mc.h"
#include "codec/quant.h"
#include "codec/vlc_tables.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pbpair::codec {
namespace {

/// SAD_Th in the paper's pseudo code (Fig. 4): intra is chosen when
/// SAD_mv - SAD_Th > SAD_self. 500 is the classic TMN value.
constexpr std::int64_t kIntraSadBias = 500;

/// residual = cur 8x8 block at (cx, cy) minus prediction rows (row-major,
/// stride `pred_stride`, origin at (ox, oy) inside the prediction buffer).
void subtract_pred(const video::Plane& cur, int cx, int cy,
                   const std::uint8_t* pred, int pred_stride, int ox, int oy,
                   std::int16_t* residual) {
  kernels::active().sub_pred_8x8(cur.row(cy) + cx, cur.width(),
                                 pred + oy * pred_stride + ox, pred_stride,
                                 residual);
}

/// dst 8x8 block at (x, y) = clamp(pred + residual).
void add_pred(video::Plane& dst, int x, int y, const std::uint8_t* pred,
              int pred_stride, int ox, int oy, const std::int16_t* residual) {
  kernels::active().add_pred_8x8(dst.row(y) + x, dst.width(),
                                 pred + oy * pred_stride + ox, pred_stride,
                                 residual);
}

/// dst 8x8 block = prediction rows verbatim.
void copy_pred(video::Plane& dst, int x, int y, const std::uint8_t* pred,
               int pred_stride, int ox, int oy) {
  for (int row = 0; row < 8; ++row) {
    std::uint8_t* d = dst.row(y + row) + x;
    const std::uint8_t* p = pred + (oy + row) * pred_stride + ox;
    for (int col = 0; col < 8; ++col) d[col] = p[col];
  }
}

}  // namespace

Encoder::Encoder(const EncoderConfig& config, RefreshPolicy* policy)
    : config_(config),
      policy_(policy),
      recon_(config.width, config.height),
      ref_(config.width, config.height),
      prev_original_(config.width, config.height) {
  PB_CHECK(policy != nullptr);
  PB_CHECK(config.qp >= kMinQp && config.qp <= kMaxQp);
  ref_.fill_gray();
}

void Encoder::reset() {
  frame_index_ = 0;
  have_prev_original_ = false;
  ref_.fill_gray();
  ops_.reset();
  policy_->reset();
}

void Encoder::encode_mb_intra(const video::YuvFrame& frame, int mb_x, int mb_y,
                              MbCoding* coding) {
  coding->mode = MbMode::kIntra;
  coding->mv = MotionVector{};
  const int lx = mb_x * 16;
  const int ly = mb_y * 16;
  std::int16_t spatial[64];
  for (int b = 0; b < 6; ++b) {
    if (b < 4) {
      extract_block(frame.y(), lx + (b % 2) * 8, ly + (b / 2) * 8, spatial);
    } else if (b == 4) {
      extract_block(frame.u(), mb_x * 8, mb_y * 8, spatial);
    } else {
      extract_block(frame.v(), mb_x * 8, mb_y * 8, spatial);
    }
    forward_dct_8x8(spatial, coding->blocks[b]);
    ops_.dct_blocks += 1;
    quantize_block(coding->blocks[b], config_.qp, /*intra=*/true, ops_);
    // Intra blocks are always coded (DC is mandatory); CBP tracks AC-only
    // emptiness just for statistics, the bitstream uses the in-block flag.
    coding->cbp |= 1 << b;
  }
}

void Encoder::encode_mb_inter(const video::YuvFrame& frame, int mb_x, int mb_y,
                              MotionVector mv, MbCoding* coding) {
  coding->mode = MbMode::kInter;
  coding->mv = mv;
  const int lx = mb_x * 16;
  const int ly = mb_y * 16;

  // Form the predictions once (half-pel aware); residual coding and
  // reconstruction both read these buffers.
  predict_block(ref_.y(), lx * 2 + mv.x, ly * 2 + mv.y, 16, 16,
                coding->pred_y, ops_);
  const MotionVector cmv = chroma_mv(mv);
  predict_block(ref_.u(), mb_x * 8 * 2 + cmv.x, mb_y * 8 * 2 + cmv.y, 8, 8,
                coding->pred_u, ops_);
  predict_block(ref_.v(), mb_x * 8 * 2 + cmv.x, mb_y * 8 * 2 + cmv.y, 8, 8,
                coding->pred_v, ops_);

  std::int16_t residual[64];
  for (int b = 0; b < 6; ++b) {
    if (b < 4) {
      subtract_pred(frame.y(), lx + (b % 2) * 8, ly + (b / 2) * 8,
                    coding->pred_y, 16, (b % 2) * 8, (b / 2) * 8, residual);
    } else {
      subtract_pred(b == 4 ? frame.u() : frame.v(), mb_x * 8, mb_y * 8,
                    b == 4 ? coding->pred_u : coding->pred_v, 8, 0, 0,
                    residual);
    }
    forward_dct_8x8(residual, coding->blocks[b]);
    ops_.dct_blocks += 1;
    int nonzero =
        quantize_block(coding->blocks[b], config_.qp, /*intra=*/false, ops_);
    if (nonzero > 0) coding->cbp |= 1 << b;
  }
  if (coding->cbp == 0 && mv.is_zero()) {
    coding->mode = MbMode::kSkip;
  }
}

void Encoder::write_mb(BitWriter& writer, const MbCoding& coding,
                       bool intra_frame, MotionVector* mv_predictor) {
  if (!intra_frame) {
    if (coding.mode == MbMode::kSkip) {
      writer.put_bit(true);  // COD = 1: not coded
      *mv_predictor = MotionVector{};
      return;
    }
    writer.put_bit(false);                              // COD = 0
    writer.put_bit(coding.mode == MbMode::kIntra);      // mode
  } else {
    PB_CHECK(coding.mode == MbMode::kIntra);
  }
  if (coding.mode == MbMode::kIntra) {
    for (int b = 0; b < 6; ++b) {
      encode_block(writer, coding.blocks[b], /*intra=*/true);
    }
    *mv_predictor = MotionVector{};
    return;
  }
  // Differential MV coding: predictor is the previous inter MB's vector in
  // this GOB row (resync-safe: rows reset it), (0,0) after skip/intra.
  put_se(writer, coding.mv.x - mv_predictor->x);
  put_se(writer, coding.mv.y - mv_predictor->y);
  *mv_predictor = coding.mv;
  cbp_vlc().encode(writer, coding.cbp);
  for (int b = 0; b < 6; ++b) {
    if ((coding.cbp >> b) & 1) {
      encode_block(writer, coding.blocks[b], /*intra=*/false);
    }
  }
}

void Encoder::reconstruct_mb(const MbCoding& coding, int mb_x, int mb_y) {
  const int lx = mb_x * 16;
  const int ly = mb_y * 16;
  std::int16_t levels[64];
  std::int16_t spatial[64];

  if (coding.mode == MbMode::kSkip) {
    copy_region(ref_.y(), lx, ly, recon_.y(), lx, ly, 16, 16);
    copy_region(ref_.u(), mb_x * 8, mb_y * 8, recon_.u(), mb_x * 8, mb_y * 8,
                8, 8);
    copy_region(ref_.v(), mb_x * 8, mb_y * 8, recon_.v(), mb_x * 8, mb_y * 8,
                8, 8);
    ops_.mc_pixels += 256 + 2 * 64;
    return;
  }

  if (coding.mode == MbMode::kIntra) {
    for (int b = 0; b < 6; ++b) {
      video::Plane& dst =
          b < 4 ? recon_.y() : (b == 4 ? recon_.u() : recon_.v());
      int bx = b < 4 ? lx + (b % 2) * 8 : mb_x * 8;
      int by = b < 4 ? ly + (b / 2) * 8 : mb_y * 8;
      for (int i = 0; i < 64; ++i) levels[i] = coding.blocks[b][i];
      dequantize_block(levels, config_.qp, /*intra=*/true, ops_);
      inverse_dct_8x8(levels, spatial);
      ops_.idct_blocks += 1;
      store_block(dst, bx, by, spatial);
    }
    return;
  }

  // Inter: prediction buffers were formed during encode_mb_inter.
  for (int b = 0; b < 6; ++b) {
    const bool coded = ((coding.cbp >> b) & 1) != 0;
    video::Plane& dst = b < 4 ? recon_.y() : (b == 4 ? recon_.u() : recon_.v());
    const std::uint8_t* pred =
        b < 4 ? coding.pred_y : (b == 4 ? coding.pred_u : coding.pred_v);
    int stride = b < 4 ? 16 : 8;
    int ox = b < 4 ? (b % 2) * 8 : 0;
    int oy = b < 4 ? (b / 2) * 8 : 0;
    int bx = b < 4 ? lx + (b % 2) * 8 : mb_x * 8;
    int by = b < 4 ? ly + (b / 2) * 8 : mb_y * 8;
    if (coded) {
      for (int i = 0; i < 64; ++i) levels[i] = coding.blocks[b][i];
      dequantize_block(levels, config_.qp, /*intra=*/false, ops_);
      inverse_dct_8x8(levels, spatial);
      ops_.idct_blocks += 1;
      add_pred(dst, bx, by, pred, stride, ox, oy, spatial);
    } else {
      copy_pred(dst, bx, by, pred, stride, ox, oy);
    }
  }
}

EncodedFrame Encoder::encode_frame(const video::YuvFrame& frame) {
  PB_CHECK(frame.width() == config_.width && frame.height() == config_.height);
  const int mb_cols = frame.mb_cols();
  const int mb_rows = frame.mb_rows();
  const int mb_count = mb_cols * mb_rows;

  // Observability: spans and stage clocks only READ — they never feed
  // back into coding decisions, so the bitstream is byte-identical with
  // tracing on or off (tests/test_obs.cpp holds this invariant).
  const bool tracing = obs::enabled();
  obs::ScopedSpan frame_span("encoder.encode_frame", frame_index_, "frame");
  std::int64_t me_ns = 0, transform_ns = 0, vlc_ns = 0, recon_ns = 0;
  auto staged = [tracing](std::int64_t* acc, auto&& body) {
    if (!tracing) {
      body();
      return;
    }
    const std::int64_t t0 = obs::trace_now_ns();
    body();
    *acc += obs::trace_now_ns() - t0;
  };

  const bool intra_frame =
      frame_index_ == 0 || policy_->want_intra_frame(frame_index_);

  std::vector<std::uint8_t> force_intra(mb_count, 0);
  std::vector<MbMeInfo> me_info(mb_count);
  std::vector<std::int64_t> sad_self(mb_count, -1);

  if (!intra_frame) {
    const std::int64_t me_t0 = tracing ? obs::trace_now_ns() : 0;
    MePenaltyFn penalty;
    if (policy_->has_me_penalty()) {
      penalty = [this](int mb_x, int mb_y, MotionVector mv) {
        return policy_->me_penalty(mb_x, mb_y, mv);
      };
    }
    for (int my = 0; my < mb_rows; ++my) {
      for (int mx = 0; mx < mb_cols; ++mx) {
        const int i = my * mb_cols + mx;
        if (policy_->force_intra_pre_me(frame_index_, mx, my)) {
          force_intra[i] = 1;
          continue;  // the paper's early decision: no ME for this MB
        }
        MotionResult result = search_motion(frame.y(), ref_.y(), mx, my,
                                            config_.search, penalty, ops_);
        me_info[i].searched = true;
        me_info[i].mv = result.mv;
        me_info[i].sad = result.sad;
        me_info[i].sad_zero = result.sad_zero;
      }
    }
    policy_->select_post_me(frame_index_, me_info, mb_cols, mb_rows,
                            &force_intra);
    if (tracing) {
      me_ns = obs::trace_now_ns() - me_t0;
      obs::record_span("encoder.me_search", me_t0, me_ns, frame_index_,
                       "frame");
    }
  }

  EncodedFrame out;
  out.frame_index = frame_index_;
  out.type = intra_frame ? FrameType::kIntra : FrameType::kInter;
  out.qp = config_.qp;
  out.mb_cols = mb_cols;
  out.mb_rows = mb_rows;
  out.mb_records.resize(mb_count);

  BitWriter writer;
  writer.put_bits(static_cast<std::uint32_t>(frame_index_ & 0xFF), 8);
  writer.put_bit(out.type == FrameType::kInter);
  writer.put_bits(static_cast<std::uint32_t>(config_.qp), 5);
  writer.align();

  for (int my = 0; my < mb_rows; ++my) {
    writer.align();
    out.gob_offsets.push_back(static_cast<std::uint32_t>(writer.byte_offset()));
    writer.put_bits(static_cast<std::uint32_t>(my), 8);  // GOB header
    MotionVector mv_predictor{};  // resets at every GOB (resync point)
    for (int mx = 0; mx < mb_cols; ++mx) {
      const int i = my * mb_cols + mx;
      const std::uint64_t bits_before = writer.bit_count();

      MbCoding coding;
      staged(&transform_ns, [&] {
        if (intra_frame || force_intra[i]) {
          encode_mb_intra(frame, mx, my, &coding);
        } else {
          // Encoder-efficiency intra decision (paper Fig. 4): if inter
          // coding would cost more bits than intra, use intra even for a
          // healthy MB.
          sad_self[i] = sad_self_16x16(frame.y(), mx * 16, my * 16, ops_);
          if (me_info[i].sad - kIntraSadBias > sad_self[i]) {
            encode_mb_intra(frame, mx, my, &coding);
          } else {
            encode_mb_inter(frame, mx, my, me_info[i].mv, &coding);
          }
        }
      });
      staged(&vlc_ns,
             [&] { write_mb(writer, coding, intra_frame, &mv_predictor); });
      staged(&recon_ns, [&] { reconstruct_mb(coding, mx, my); });

      MbEncodeRecord& record = out.mb_records[i];
      record.mode = coding.mode;
      record.mv = coding.mode == MbMode::kInter ? coding.mv : MotionVector{};
      record.sad_mv = me_info[i].searched ? me_info[i].sad : -1;
      record.sad_zero = me_info[i].searched ? me_info[i].sad_zero : -1;
      record.sad_self = sad_self[i];
      record.pre_me_intra = force_intra[i] != 0 && !me_info[i].searched;
      record.bits = static_cast<std::uint32_t>(writer.bit_count() - bits_before);

      switch (coding.mode) {
        case MbMode::kIntra: ops_.intra_mbs += 1; break;
        case MbMode::kInter: ops_.inter_mbs += 1; break;
        case MbMode::kSkip: ops_.skip_mbs += 1; break;
      }
    }
  }

  out.bytes = writer.finish();
  ops_.bits_written += static_cast<std::uint64_t>(out.bytes.size()) * 8;
  ops_.frames += 1;

  // In-loop deblocking: filter the reconstruction before it becomes the
  // next frame's reference (the decoder mirrors this exactly).
  if (config_.deblocking) deblock_frame(recon_, config_.qp);

  FrameEncodeInfo info;
  info.frame_index = frame_index_;
  info.type = out.type;
  info.mb_cols = mb_cols;
  info.mb_rows = mb_rows;
  info.mb_records = &out.mb_records;
  info.original = &frame;
  info.prev_original = have_prev_original_ ? &prev_original_ : nullptr;
  info.ops = &ops_;
  policy_->on_frame_encoded(info);

  if (tracing) {
    // Stage timings only: StreamSession publishes the frame's counts from
    // ops_ (DESIGN.md §8). Handles are cached; registry lookups lock.
    static obs::Histogram* h_me = &obs::histogram("encoder.me_ns");
    static obs::Histogram* h_transform =
        &obs::histogram("encoder.transform_quant_ns");
    static obs::Histogram* h_vlc = &obs::histogram("encoder.vlc_ns");
    static obs::Histogram* h_recon = &obs::histogram("encoder.recon_ns");
    if (!intra_frame) h_me->observe(me_ns);
    h_transform->observe(transform_ns);
    h_vlc->observe(vlc_ns);
    h_recon->observe(recon_ns);
  }

  // Advance references for the next frame.
  ref_ = recon_;
  prev_original_ = frame;
  have_prev_original_ = true;
  ++frame_index_;
  return out;
}

}  // namespace pbpair::codec
