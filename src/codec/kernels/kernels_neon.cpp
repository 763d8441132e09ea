// NEON (AArch64 AdvSIMD) kernels. AdvSIMD is architecturally mandatory on
// AArch64, so there is no runtime feature check — the dispatcher offers
// this table on every arm64 build. CI cross-compiles this TU with
// aarch64-linux-gnu-g++ and smoke-tests it under qemu-user so it cannot rot
// on x86-only development machines.
//
// Bit-exactness notes:
//  - SAD: VABD/VADDLV sum absolute byte differences exactly.
//  - Half-pel: VRHADD computes (a + b + 1) >> 1 exactly; the center phase
//    widens to 16-bit lanes for (a+b+c+d+2)>>2 (rounding-average
//    composition would differ from the scalar formula).
//  - DCT/IDCT: VMLAL.S16 widens int16 x int16 products into exact int32
//    accumulators; intermediates use the same hi/lo 2^15-split as the x86
//    PMADDWD kernels (overflow proofs in kernels_x86_128.inl), and the Q28
//    finish uses the identical int32 rounding identity.
//  - Quant: the magic-multiply exact-division trick from the AVX2 kernel
//    (proof there); products fit int32 for every codec input.
#include "codec/kernels/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "codec/kernels/dct_tables.h"
#include "codec/quant.h"
#include "common/check.h"

namespace pbpair::codec::kernels {
namespace {

std::int64_t sad_16x16_neon(const std::uint8_t* cur, int cur_stride,
                            const std::uint8_t* ref, int ref_stride) {
  // Each u16 lane accumulates <= 16 rows * 2 bytes * 255 = 8160: no wrap.
  uint16x8_t acc = vdupq_n_u16(0);
  for (int y = 0; y < 16; ++y) {
    uint8x16_t c = vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    uint8x16_t r = vld1q_u8(ref + static_cast<std::ptrdiff_t>(y) * ref_stride);
    acc = vpadalq_u8(acc, vabdq_u8(c, r));
  }
  return static_cast<std::int64_t>(vaddlvq_u16(acc));
}

std::int64_t sad_self_16x16_neon(const std::uint8_t* cur, int cur_stride) {
  uint16x8_t acc = vdupq_n_u16(0);
  for (int y = 0; y < 16; ++y) {
    uint8x16_t c = vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    acc = vpadalq_u8(acc, c);
  }
  const std::int64_t sum = vaddlvq_u16(acc);
  const int mean = static_cast<int>(sum / 256);  // truncated, fits a byte
  const uint8x16_t vmean = vdupq_n_u8(static_cast<std::uint8_t>(mean));
  uint16x8_t dev = vdupq_n_u16(0);
  for (int y = 0; y < 16; ++y) {
    uint8x16_t c = vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    dev = vpadalq_u8(dev, vabdq_u8(c, vmean));
  }
  return static_cast<std::int64_t>(vaddlvq_u16(dev));
}

// Totals of four u16 accumulators, candidate i's in lane i. Pairwise adds
// only ever form partial sums of one block's total (<= 65280): no wrap.
inline uint16x4_t neon_totals4(uint16x8_t a0, uint16x8_t a1, uint16x8_t a2,
                               uint16x8_t a3) {
  uint16x8_t q = vpaddq_u16(vpaddq_u16(a0, a1), vpaddq_u16(a2, a3));
  return vget_low_u16(vpaddq_u16(q, q));
}

template <int N>
void sad_16x16_xn_neon(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* const refs[N], int ref_stride,
                       std::uint16_t rows[16][N]) {
  static_assert(N == 4 || N == 8);
  uint16x8_t acc[N];
  for (int i = 0; i < N; ++i) acc[i] = vdupq_n_u16(0);
  for (int y = 0; y < 16; ++y) {
    const std::ptrdiff_t roff = static_cast<std::ptrdiff_t>(y) * ref_stride;
    uint8x16_t c = vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    for (int i = 0; i < N; ++i) {
      acc[i] = vpadalq_u8(acc[i], vabdq_u8(c, vld1q_u8(refs[i] + roff)));
    }
    for (int g = 0; g < N; g += 4) {
      vst1_u16(&rows[y][g],
               neon_totals4(acc[g], acc[g + 1], acc[g + 2], acc[g + 3]));
    }
  }
}

// ---------------------------------------------------------------------------
// Half-pel interpolation + MC
// ---------------------------------------------------------------------------

template <int HX, int HY>
inline uint8x16_t neon_hpel_row16(const std::uint8_t* r0,
                                  const std::uint8_t* r1) {
  if constexpr (HX == 0 && HY == 0) {
    return vld1q_u8(r0);
  } else if constexpr (HX == 1 && HY == 0) {
    return vrhaddq_u8(vld1q_u8(r0), vld1q_u8(r0 + 1));
  } else if constexpr (HX == 0 && HY == 1) {
    return vrhaddq_u8(vld1q_u8(r0), vld1q_u8(r1));
  } else {
    uint8x16_t a = vld1q_u8(r0), b = vld1q_u8(r0 + 1);
    uint8x16_t c = vld1q_u8(r1), d = vld1q_u8(r1 + 1);
    uint16x8_t lo = vaddq_u16(
        vaddl_u8(vget_low_u8(a), vget_low_u8(b)),
        vaddl_u8(vget_low_u8(c), vget_low_u8(d)));
    uint16x8_t hi = vaddq_u16(vaddl_u8(vget_high_u8(a), vget_high_u8(b)),
                              vaddl_u8(vget_high_u8(c), vget_high_u8(d)));
    lo = vshrq_n_u16(vaddq_u16(lo, vdupq_n_u16(2)), 2);
    hi = vshrq_n_u16(vaddq_u16(hi, vdupq_n_u16(2)), 2);
    return vcombine_u8(vmovn_u16(lo), vmovn_u16(hi));
  }
}

template <int HX, int HY>
inline uint8x8_t neon_hpel_row8(const std::uint8_t* r0,
                                const std::uint8_t* r1) {
  if constexpr (HX == 0 && HY == 0) {
    return vld1_u8(r0);
  } else if constexpr (HX == 1 && HY == 0) {
    return vrhadd_u8(vld1_u8(r0), vld1_u8(r0 + 1));
  } else if constexpr (HX == 0 && HY == 1) {
    return vrhadd_u8(vld1_u8(r0), vld1_u8(r1));
  } else {
    uint16x8_t sum = vaddq_u16(vaddl_u8(vld1_u8(r0), vld1_u8(r0 + 1)),
                               vaddl_u8(vld1_u8(r1), vld1_u8(r1 + 1)));
    sum = vshrq_n_u16(vaddq_u16(sum, vdupq_n_u16(2)), 2);
    return vmovn_u16(sum);
  }
}

template <int HX, int HY>
std::int64_t neon_sad_hpel(const std::uint8_t* cur, int cur_stride,
                           const std::uint8_t* ref, int ref_stride,
                           std::int64_t cutoff, int* rows_processed) {
  std::int64_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* r0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    const std::uint8_t* r1 = r0 + (HY != 0 ? ref_stride : 0);
    uint8x16_t p = neon_hpel_row16<HX, HY>(r0, r1);
    uint8x16_t c = vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    sad += vaddlvq_u8(vabdq_u8(c, p));
    if (sad >= cutoff) {
      *rows_processed = y + 1;
      return sad;
    }
  }
  *rows_processed = 16;
  return sad;
}

std::int64_t sad_16x16_hpel_cutoff_neon(const std::uint8_t* cur,
                                        int cur_stride,
                                        const std::uint8_t* ref,
                                        int ref_stride, int hx, int hy,
                                        std::int64_t cutoff,
                                        int* rows_processed) {
  if (hx == 0 && hy == 0) {
    return neon_sad_hpel<0, 0>(cur, cur_stride, ref, ref_stride, cutoff,
                               rows_processed);
  }
  if (hy == 0) {
    return neon_sad_hpel<1, 0>(cur, cur_stride, ref, ref_stride, cutoff,
                               rows_processed);
  }
  if (hx == 0) {
    return neon_sad_hpel<0, 1>(cur, cur_stride, ref, ref_stride, cutoff,
                               rows_processed);
  }
  return neon_sad_hpel<1, 1>(cur, cur_stride, ref, ref_stride, cutoff,
                             rows_processed);
}

template <int W, int HX, int HY>
void neon_mc_predict(const std::uint8_t* src, int src_stride,
                     std::uint8_t* dst, int h) {
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* r0 = src + static_cast<std::ptrdiff_t>(y) * src_stride;
    const std::uint8_t* r1 = r0 + (HY != 0 ? src_stride : 0);
    std::uint8_t* drow = dst + static_cast<std::ptrdiff_t>(y) * W;
    if constexpr (W == 16) {
      vst1q_u8(drow, neon_hpel_row16<HX, HY>(r0, r1));
    } else {
      vst1_u8(drow, neon_hpel_row8<HX, HY>(r0, r1));
    }
  }
}

void mc_predict_neon(const std::uint8_t* src, int src_stride,
                     std::uint8_t* dst, int w, int h, int hx, int hy) {
  const int key = (w == 16 ? 4 : 0) | (hx << 1) | hy;
  switch (key) {
    case 0:
      return neon_mc_predict<8, 0, 0>(src, src_stride, dst, h);
    case 1:
      return neon_mc_predict<8, 0, 1>(src, src_stride, dst, h);
    case 2:
      return neon_mc_predict<8, 1, 0>(src, src_stride, dst, h);
    case 3:
      return neon_mc_predict<8, 1, 1>(src, src_stride, dst, h);
    case 4:
      return neon_mc_predict<16, 0, 0>(src, src_stride, dst, h);
    case 5:
      return neon_mc_predict<16, 0, 1>(src, src_stride, dst, h);
    case 6:
      return neon_mc_predict<16, 1, 0>(src, src_stride, dst, h);
    default:
      return neon_mc_predict<16, 1, 1>(src, src_stride, dst, h);
  }
}

void sub_pred_8x8_neon(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* pred, int pred_stride,
                       std::int16_t* residual) {
  for (int y = 0; y < 8; ++y) {
    uint8x8_t c = vld1_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    uint8x8_t p = vld1_u8(pred + static_cast<std::ptrdiff_t>(y) * pred_stride);
    vst1q_s16(residual + y * 8,
              vreinterpretq_s16_u16(vsubl_u8(c, p)));
  }
}

void add_pred_8x8_neon(std::uint8_t* dst, int dst_stride,
                       const std::uint8_t* pred, int pred_stride,
                       const std::int16_t* residual) {
  for (int y = 0; y < 8; ++y) {
    uint8x8_t p = vld1_u8(pred + static_cast<std::ptrdiff_t>(y) * pred_stride);
    int16x8_t sum = vaddq_s16(vreinterpretq_s16_u16(vmovl_u8(p)),
                              vld1q_s16(residual + y * 8));
    // VQMOVUN saturates int16 -> [0, 255], which IS the scalar clamp.
    vst1_u8(dst + static_cast<std::ptrdiff_t>(y) * dst_stride,
            vqmovun_s16(sum));
  }
}

// ---------------------------------------------------------------------------
// DCT / IDCT via widening multiply-accumulate (VMLAL.S16)
// ---------------------------------------------------------------------------

inline int32x4_t neon_q28_round(int32x4_t k) {
  // ((K + 2^12) >> 13) + (K < 0 ? -1 : 0): same identity as the x86 path.
  return vaddq_s32(vshrq_n_s32(vaddq_s32(k, vdupq_n_s32(1 << 12)), 13),
                   vshrq_n_s32(k, 31));
}

inline int16x8_t neon_clamp_coeffs(int32x4_t a, int32x4_t b) {
  // |rounded| <= 13451, so the narrowing is exact; clamp on int16 lanes.
  int16x8_t row = vcombine_s16(vmovn_s32(a), vmovn_s32(b));
  return vminq_s16(vmaxq_s16(row, vdupq_n_s16(-2048)), vdupq_n_s16(2047));
}

void forward_dct_8x8_neon(const std::int16_t* input, std::int16_t* output) {
  // Pass A (rows): Y[x][v] = sum_y in[x][y] * B[v][y]; scalar input sample
  // times the transposed-basis column vector, exact int32.
  int32x4_t ya[8], yb[8];
  for (int x = 0; x < 8; ++x) {
    const std::int16_t* in = input + x * 8;
    int32x4_t acc_a = vdupq_n_s32(0), acc_b = acc_a;
    for (int y = 0; y < 8; ++y) {
      int16x8_t bcol = vld1q_s16(kDctBasis16.cols[y]);  // B[v][y] over v
      acc_a = vmlal_n_s16(acc_a, vget_low_s16(bcol), in[y]);
      acc_b = vmlal_n_s16(acc_b, vget_high_s16(bcol), in[y]);
    }
    ya[x] = acc_a;
    yb[x] = acc_b;
  }
  // Split Y = hi * 2^15 + lo, both int16-exact (see kernels_x86_128.inl).
  int16x4_t ha[8], la[8], hb[8], lb[8];
  for (int x = 0; x < 8; ++x) {
    int32x4_t h_a = vshrq_n_s32(vaddq_s32(ya[x], vdupq_n_s32(1 << 14)), 15);
    int32x4_t h_b = vshrq_n_s32(vaddq_s32(yb[x], vdupq_n_s32(1 << 14)), 15);
    ha[x] = vmovn_s32(h_a);
    hb[x] = vmovn_s32(h_b);
    la[x] = vmovn_s32(vsubq_s32(ya[x], vshlq_n_s32(h_a, 15)));
    lb[x] = vmovn_s32(vsubq_s32(yb[x], vshlq_n_s32(h_b, 15)));
  }
  // Pass B: F[u][v] = sum_x B[u][x] * Y[x][v], Q28 finish in int32.
  for (int u = 0; u < 8; ++u) {
    int32x4_t fh_a = vdupq_n_s32(0), fl_a = fh_a, fh_b = fh_a, fl_b = fh_a;
    for (int x = 0; x < 8; ++x) {
      const std::int16_t w = kDctBasis16.rows[u][x];
      fh_a = vmlal_n_s16(fh_a, ha[x], w);
      fl_a = vmlal_n_s16(fl_a, la[x], w);
      fh_b = vmlal_n_s16(fh_b, hb[x], w);
      fl_b = vmlal_n_s16(fl_b, lb[x], w);
    }
    int32x4_t k_a = vaddq_s32(fh_a, vshrq_n_s32(fl_a, 15));
    int32x4_t k_b = vaddq_s32(fh_b, vshrq_n_s32(fl_b, 15));
    vst1q_s16(output + u * 8,
              neon_clamp_coeffs(neon_q28_round(k_a), neon_q28_round(k_b)));
  }
}

void inverse_dct_8x8_neon(const std::int16_t* input, std::int16_t* output) {
  // Pass 1: tmp[x][v] = sum_u B[u][x] * F[u][v]; input rows are contiguous
  // int16, so accumulate them scaled by the transposed basis weights.
  int32x4_t ta[8], tb[8];
  for (int x = 0; x < 8; ++x) {
    ta[x] = vdupq_n_s32(0);
    tb[x] = vdupq_n_s32(0);
  }
  for (int u = 0; u < 8; ++u) {
    int16x8_t frow = vld1q_s16(input + u * 8);
    int16x4_t f_lo = vget_low_s16(frow);
    int16x4_t f_hi = vget_high_s16(frow);
    for (int x = 0; x < 8; ++x) {
      const std::int16_t w = kDctBasis16.cols[x][u];  // B[u][x]
      ta[x] = vmlal_n_s16(ta[x], f_lo, w);
      tb[x] = vmlal_n_s16(tb[x], f_hi, w);
    }
  }
  // Pass 2: X[x][y] = sum_v tmp[x][v] * B[v][y] with tmp split hi/lo; the
  // weights are scalars, so bounce them through a small stack array.
  for (int x = 0; x < 8; ++x) {
    int32x4_t h_a = vshrq_n_s32(vaddq_s32(ta[x], vdupq_n_s32(1 << 14)), 15);
    int32x4_t h_b = vshrq_n_s32(vaddq_s32(tb[x], vdupq_n_s32(1 << 14)), 15);
    alignas(16) std::int16_t th[8], tl[8];
    vst1q_s16(th, vcombine_s16(vmovn_s32(h_a), vmovn_s32(h_b)));
    vst1q_s16(tl, vcombine_s16(
                      vmovn_s32(vsubq_s32(ta[x], vshlq_n_s32(h_a, 15))),
                      vmovn_s32(vsubq_s32(tb[x], vshlq_n_s32(h_b, 15)))));
    int32x4_t xh_a = vdupq_n_s32(0), xl_a = xh_a, xh_b = xh_a, xl_b = xh_a;
    for (int v = 0; v < 8; ++v) {
      int16x8_t brow = vld1q_s16(kDctBasis16.rows[v]);  // B[v][y] over y
      xh_a = vmlal_n_s16(xh_a, vget_low_s16(brow), th[v]);
      xh_b = vmlal_n_s16(xh_b, vget_high_s16(brow), th[v]);
      xl_a = vmlal_n_s16(xl_a, vget_low_s16(brow), tl[v]);
      xl_b = vmlal_n_s16(xl_b, vget_high_s16(brow), tl[v]);
    }
    int32x4_t k_a = vaddq_s32(xh_a, vshrq_n_s32(xl_a, 15));
    int32x4_t k_b = vaddq_s32(xh_b, vshrq_n_s32(xl_b, 15));
    vst1q_s16(output + x * 8,
              neon_clamp_coeffs(neon_q28_round(k_a), neon_q28_round(k_b)));
  }
}

// ---------------------------------------------------------------------------
// Quantization (magic-multiply exact division; proof in kernels_avx2.cpp)
// ---------------------------------------------------------------------------

int quantize_ac_neon(std::int16_t* block, int first, int qp, bool intra) {
  PB_DCHECK(first == 0 || first == 1);
  PB_CHECK(qp >= kMinQp && qp <= kMaxQp);
  const int d = 2 * qp;
  const int32x4_t vmagic = vdupq_n_s32((1 << 18) / d + 1);
  const int32x4_t vbias = vdupq_n_s32(intra ? 0 : qp / 2);
  const int32x4_t vmax = vdupq_n_s32(kMaxLevel);
  const int32x4_t zero = vdupq_n_s32(0);
  const std::int16_t saved_dc = block[0];

  auto level_of = [&](int32x4_t x) {
    int32x4_t mag = vabsq_s32(x);
    int32x4_t num = vmaxq_s32(vsubq_s32(mag, vbias), zero);
    int32x4_t lvl = vshrq_n_s32(vmulq_s32(num, vmagic), 18);
    lvl = vminq_s32(lvl, vmax);
    // Negate where x < 0 (x == 0 already yields level 0).
    uint32x4_t neg = vcltq_s32(x, zero);
    return vbslq_s32(neg, vnegq_s32(lvl), lvl);
  };

  uint16x8_t nz_counts = vdupq_n_u16(0);
  for (int i = 0; i < 64; i += 8) {
    int16x8_t v = vld1q_s16(block + i);
    int32x4_t lo = level_of(vmovl_s16(vget_low_s16(v)));
    int32x4_t hi = level_of(vmovl_s16(vget_high_s16(v)));
    int16x8_t packed = vcombine_s16(vmovn_s32(lo), vmovn_s32(hi));
    vst1q_s16(block + i, packed);
    // vtst yields all-ones (== -1) per nonzero lane; subtracting counts.
    nz_counts = vsubq_u16(nz_counts,
                          vreinterpretq_u16_s16(vreinterpretq_s16_u16(
                              vtstq_s16(packed, packed))));
  }
  int nonzero = static_cast<int>(vaddvq_u16(nz_counts));
  if (first == 1) {
    // The DC slot was processed but does not count (and is restored).
    if (quantize_coeff(saved_dc, qp, intra) != 0) --nonzero;
    block[0] = saved_dc;
  }
  return nonzero;
}

void dequantize_ac_neon(std::int16_t* block, int first, int qp) {
  PB_DCHECK(first == 0 || first == 1);
  const int32x4_t vqp = vdupq_n_s32(qp);
  const int32x4_t vone = vdupq_n_s32(1);
  const int32x4_t veven = vdupq_n_s32(qp % 2 == 0 ? 1 : 0);
  const int32x4_t vmax = vdupq_n_s32(2047);
  const int32x4_t zero = vdupq_n_s32(0);
  const std::int16_t saved_dc = block[0];

  auto rec_of = [&](int32x4_t x) {
    int32x4_t mag = vabsq_s32(x);
    // |REC| = QP * (2|LEVEL| + 1), minus 1 when QP is even (oddification).
    int32x4_t rec =
        vmulq_s32(vqp, vaddq_s32(vshlq_n_s32(mag, 1), vone));
    rec = vminq_s32(vsubq_s32(rec, veven), vmax);
    uint32x4_t neg = vcltq_s32(x, zero);
    rec = vbslq_s32(neg, vnegq_s32(rec), rec);
    // LEVEL == 0 reconstructs to 0, not to QP - even.
    return vbslq_s32(vceqq_s32(x, zero), zero, rec);
  };

  for (int i = 0; i < 64; i += 8) {
    int16x8_t v = vld1q_s16(block + i);
    int32x4_t lo = rec_of(vmovl_s16(vget_low_s16(v)));
    int32x4_t hi = rec_of(vmovl_s16(vget_high_s16(v)));
    vst1q_s16(block + i, vcombine_s16(vmovn_s32(lo), vmovn_s32(hi)));
  }
  if (first == 1) block[0] = saved_dc;
}

}  // namespace

const KernelTable* neon_table_or_null() {
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.backend = Backend::kNeon;
    t.name = "neon";
    for (int i = 0; i < kNumKernels; ++i) t.origin[i] = Backend::kNeon;
    t.sad_16x16 = &sad_16x16_neon;
    t.sad_self_16x16 = &sad_self_16x16_neon;
    t.sad_16x16_x4 = &sad_16x16_xn_neon<4>;
    t.sad_16x16_x8 = &sad_16x16_xn_neon<8>;
    t.sad_16x16_hpel_cutoff = &sad_16x16_hpel_cutoff_neon;
    t.forward_dct_8x8 = &forward_dct_8x8_neon;
    t.inverse_dct_8x8 = &inverse_dct_8x8_neon;
    t.quantize_ac = &quantize_ac_neon;
    t.dequantize_ac = &dequantize_ac_neon;
    t.mc_predict = &mc_predict_neon;
    t.sub_pred_8x8 = &sub_pred_8x8_neon;
    t.add_pred_8x8 = &add_pred_8x8_neon;
    return t;
  }();
  return &table;
}

}  // namespace pbpair::codec::kernels

#else  // !defined(__aarch64__)

namespace pbpair::codec::kernels {
const KernelTable* neon_table_or_null() { return nullptr; }
}  // namespace pbpair::codec::kernels

#endif
