// Scalar reference kernels. These are the ground truth: every SIMD backend
// must reproduce their outputs (and early-exit row counts) bit-for-bit,
// which tests/test_kernels.cpp verifies exhaustively.
#include "codec/kernels/kernels.h"

#include "codec/kernels/dct_tables.h"
#include "codec/quant.h"
#include "common/math_util.h"

namespace pbpair::codec::kernels {
namespace {

std::int64_t sad_16x16_scalar(const std::uint8_t* cur, int cur_stride,
                              const std::uint8_t* ref, int ref_stride) {
  std::int64_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* rrow = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = 0; x < 16; ++x) {
      sad += common::iabs(static_cast<int>(crow[x]) - static_cast<int>(rrow[x]));
    }
  }
  return sad;
}

std::int64_t sad_self_16x16_scalar(const std::uint8_t* cur, int cur_stride) {
  std::int64_t sum = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    for (int x = 0; x < 16; ++x) sum += crow[x];
  }
  int mean = static_cast<int>(sum / 256);
  std::int64_t dev = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    for (int x = 0; x < 16; ++x) {
      dev += common::iabs(static_cast<int>(crow[x]) - mean);
    }
  }
  return dev;
}

template <int N>
void sad_16x16_xn_scalar(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* const refs[N], int ref_stride,
                         std::uint16_t rows[16][N]) {
  for (int i = 0; i < N; ++i) {
    int sad = 0;
    for (int y = 0; y < 16; ++y) {
      const std::uint8_t* crow =
          cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
      const std::uint8_t* rrow =
          refs[i] + static_cast<std::ptrdiff_t>(y) * ref_stride;
      for (int x = 0; x < 16; ++x) {
        sad += common::iabs(static_cast<int>(crow[x]) -
                            static_cast<int>(rrow[x]));
      }
      rows[y][i] = static_cast<std::uint16_t>(sad);
    }
  }
}

// Mirrors sample_halfpel in codec/mc.cpp, on raw rows with the clamping
// already resolved by the wrapper: a = floor sample, b = +hx neighbor,
// c = +hy neighbor, d = diagonal.
std::int64_t sad_16x16_hpel_cutoff_scalar(const std::uint8_t* cur,
                                          int cur_stride,
                                          const std::uint8_t* ref,
                                          int ref_stride, int hx, int hy,
                                          std::int64_t cutoff,
                                          int* rows_processed) {
  std::int64_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* r0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    const std::uint8_t* r1 =
        ref + static_cast<std::ptrdiff_t>(y + hy) * ref_stride;
    for (int x = 0; x < 16; ++x) {
      int p;
      if (hx == 0 && hy == 0) {
        p = r0[x];
      } else if (hy == 0) {
        p = (r0[x] + r0[x + 1] + 1) >> 1;
      } else if (hx == 0) {
        p = (r0[x] + r1[x] + 1) >> 1;
      } else {
        p = (r0[x] + r0[x + 1] + r1[x] + r1[x + 1] + 2) >> 2;
      }
      sad += common::iabs(static_cast<int>(crow[x]) - p);
    }
    if (sad >= cutoff) {
      *rows_processed = y + 1;
      return sad;
    }
  }
  *rows_processed = 16;
  return sad;
}

void mc_predict_scalar(const std::uint8_t* src, int src_stride,
                       std::uint8_t* dst, int w, int h, int hx, int hy) {
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* r0 = src + static_cast<std::ptrdiff_t>(y) * src_stride;
    const std::uint8_t* r1 =
        src + static_cast<std::ptrdiff_t>(y + hy) * src_stride;
    std::uint8_t* drow = dst + static_cast<std::ptrdiff_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      int p;
      if (hx == 0 && hy == 0) {
        p = r0[x];
      } else if (hy == 0) {
        p = (r0[x] + r0[x + 1] + 1) >> 1;
      } else if (hx == 0) {
        p = (r0[x] + r1[x] + 1) >> 1;
      } else {
        p = (r0[x] + r0[x + 1] + r1[x] + r1[x + 1] + 2) >> 2;
      }
      drow[x] = static_cast<std::uint8_t>(p);
    }
  }
}

void sub_pred_8x8_scalar(const std::uint8_t* cur, int cur_stride,
                         const std::uint8_t* pred, int pred_stride,
                         std::int16_t* residual) {
  for (int y = 0; y < 8; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* prow =
        pred + static_cast<std::ptrdiff_t>(y) * pred_stride;
    for (int x = 0; x < 8; ++x) {
      residual[y * 8 + x] =
          static_cast<std::int16_t>(static_cast<int>(crow[x]) -
                                    static_cast<int>(prow[x]));
    }
  }
}

void add_pred_8x8_scalar(std::uint8_t* dst, int dst_stride,
                         const std::uint8_t* pred, int pred_stride,
                         const std::int16_t* residual) {
  for (int y = 0; y < 8; ++y) {
    std::uint8_t* drow = dst + static_cast<std::ptrdiff_t>(y) * dst_stride;
    const std::uint8_t* prow =
        pred + static_cast<std::ptrdiff_t>(y) * pred_stride;
    for (int x = 0; x < 8; ++x) {
      int v = static_cast<int>(prow[x]) + residual[y * 8 + x];
      drow[x] = static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    }
  }
}

void forward_dct_8x8_scalar(const std::int16_t* input, std::int16_t* output) {
  // Pass 1 (columns): tmp[u][y] = sum_x B[u][x] * in[x][y].
  std::int32_t tmp[64];
  for (int u = 0; u < 8; ++u) {
    for (int y = 0; y < 8; ++y) {
      std::int32_t acc = 0;
      for (int x = 0; x < 8; ++x) {
        acc += kDctBasis[u][x] * static_cast<std::int32_t>(input[x * 8 + y]);
      }
      tmp[u * 8 + y] = acc;  // |acc| <= 8 * 8035 * 2048 fits easily
    }
  }
  // Pass 2 (rows): F[u][v] = sum_y tmp[u][y] * B[v][y], then drop Q28.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      std::int64_t acc = 0;
      for (int y = 0; y < 8; ++y) {
        acc += static_cast<std::int64_t>(tmp[u * 8 + y]) * kDctBasis[v][y];
      }
      // Round and rescale from Q28 to integer coefficients.
      std::int64_t rounded = (acc + (acc >= 0 ? (1 << 27) : -(1 << 27))) >> 28;
      output[u * 8 + v] = static_cast<std::int16_t>(
          common::clamp<std::int64_t>(rounded, -2048, 2047));
    }
  }
}

void inverse_dct_8x8_scalar(const std::int16_t* input, std::int16_t* output) {
  // Pass 1: tmp[x][v] = sum_u B[u][x] * F[u][v] (B^T * F).
  std::int32_t tmp[64];
  for (int x = 0; x < 8; ++x) {
    for (int v = 0; v < 8; ++v) {
      std::int32_t acc = 0;
      for (int u = 0; u < 8; ++u) {
        acc += kDctBasis[u][x] * static_cast<std::int32_t>(input[u * 8 + v]);
      }
      tmp[x * 8 + v] = acc;
    }
  }
  // Pass 2: X[x][y] = sum_v tmp[x][v] * B[v][y], drop Q28.
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      std::int64_t acc = 0;
      for (int v = 0; v < 8; ++v) {
        acc += static_cast<std::int64_t>(tmp[x * 8 + v]) * kDctBasis[v][y];
      }
      std::int64_t rounded = (acc + (acc >= 0 ? (1 << 27) : -(1 << 27))) >> 28;
      output[x * 8 + y] = static_cast<std::int16_t>(
          common::clamp<std::int64_t>(rounded, -2048, 2047));
    }
  }
}

int quantize_ac_scalar(std::int16_t* block, int first, int qp, bool intra) {
  int nonzero = 0;
  for (int i = first; i < 64; ++i) {
    int level = quantize_coeff(block[i], qp, intra);
    block[i] = static_cast<std::int16_t>(level);
    if (level != 0) ++nonzero;
  }
  return nonzero;
}

void dequantize_ac_scalar(std::int16_t* block, int first, int qp) {
  for (int i = first; i < 64; ++i) {
    block[i] = static_cast<std::int16_t>(dequantize_coeff(block[i], qp));
  }
}

KernelTable make_scalar_table() {
  KernelTable t;
  t.backend = Backend::kScalar;
  t.name = "scalar";
  t.sad_16x16 = &sad_16x16_scalar;
  t.sad_self_16x16 = &sad_self_16x16_scalar;
  t.sad_16x16_x4 = &sad_16x16_xn_scalar<4>;
  t.sad_16x16_x8 = &sad_16x16_xn_scalar<8>;
  t.sad_16x16_hpel_cutoff = &sad_16x16_hpel_cutoff_scalar;
  t.forward_dct_8x8 = &forward_dct_8x8_scalar;
  t.inverse_dct_8x8 = &inverse_dct_8x8_scalar;
  t.quantize_ac = &quantize_ac_scalar;
  t.dequantize_ac = &dequantize_ac_scalar;
  t.mc_predict = &mc_predict_scalar;
  t.sub_pred_8x8 = &sub_pred_8x8_scalar;
  t.add_pred_8x8 = &add_pred_8x8_scalar;
  for (int i = 0; i < kNumKernels; ++i) t.origin[i] = Backend::kScalar;
  return t;
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table = make_scalar_table();
  return table;
}

std::int64_t sad_16x16_cutoff_scalar(const std::uint8_t* cur, int cur_stride,
                                     const std::uint8_t* ref, int ref_stride,
                                     std::int64_t cutoff,
                                     int* rows_processed) {
  std::int64_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* crow = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* rrow = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = 0; x < 16; ++x) {
      sad += common::iabs(static_cast<int>(crow[x]) - static_cast<int>(rrow[x]));
    }
    if (sad >= cutoff) {  // cannot become the best candidate
      *rows_processed = y + 1;
      return sad;
    }
  }
  *rows_processed = 16;
  return sad;
}

}  // namespace pbpair::codec::kernels
