// AVX2 kernels. Compiled with -mavx2 (see src/codec/CMakeLists.txt); the
// dispatcher only hands this table out when the running CPU reports AVX2.
//
// Bit-exactness notes (each proven against the scalar reference in
// tests/test_kernels.cpp):
//  - SAD: VPSADBW is an exact sum of absolute byte differences; integer
//    addition is associative, so lane order cannot change the total, and
//    the batched x4/x8 kernels' per-row running totals equal the scalar
//    loop's partial sums.
//  - DCT/IDCT: the VPMADDWD formulation documented in kernels_x86_128.inl,
//    widened to 8 lanes — exact int32 arithmetic end to end, including the
//    Q28 rounding identity, so no int64 lanes and no scalar tail.
//  - Quant: division by 2*qp is replaced by the magic-multiply
//    floor(n * (floor(2^18 / d) + 1) >> 18), which equals floor(n / d) for
//    all n <= 4095, d <= 62: the rounding error n*e/2^18 < 4096/2^18 is
//    below the smallest distance 1/62 from a rational n/d to the next
//    integer. DCT output is clamped to [-2048, 2047], so every codec
//    input is in range.
//  - Half-pel/MC/residual kernels come from kernels_x86_128.inl, compiled
//    here with VEX encodings.
#include "codec/kernels/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "codec/kernels/dct_tables.h"
#include "codec/quant.h"
#include "common/check.h"

namespace pbpair::codec::kernels {
namespace {

#include "codec/kernels/kernels_x86_128.inl"

inline __m128i load_row128(const std::uint8_t* base, int stride, int y) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(
      base + static_cast<std::ptrdiff_t>(y) * stride));
}

inline std::int64_t hsum_sad256(__m256i acc) {
  return x86_sad_hsum(_mm_add_epi64(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1)));
}

std::int64_t sad_16x16_avx2(const std::uint8_t* cur, int cur_stride,
                            const std::uint8_t* ref, int ref_stride) {
  __m256i acc = _mm256_setzero_si256();
  for (int y = 0; y < 16; y += 2) {
    __m256i c = _mm256_inserti128_si256(
        _mm256_castsi128_si256(load_row128(cur, cur_stride, y)),
        load_row128(cur, cur_stride, y + 1), 1);
    __m256i r = _mm256_inserti128_si256(
        _mm256_castsi128_si256(load_row128(ref, ref_stride, y)),
        load_row128(ref, ref_stride, y + 1), 1);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, r));
  }
  return hsum_sad256(acc);
}

std::int64_t sad_self_16x16_avx2(const std::uint8_t* cur, int cur_stride) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  for (int y = 0; y < 16; y += 2) {
    __m256i c = _mm256_inserti128_si256(
        _mm256_castsi128_si256(load_row128(cur, cur_stride, y)),
        load_row128(cur, cur_stride, y + 1), 1);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, zero));
  }
  const std::int64_t sum = hsum_sad256(acc);
  const int mean = static_cast<int>(sum / 256);  // fits a byte
  const __m256i vmean = _mm256_set1_epi8(static_cast<char>(mean));
  __m256i dev = zero;
  for (int y = 0; y < 16; y += 2) {
    __m256i c = _mm256_inserti128_si256(
        _mm256_castsi128_si256(load_row128(cur, cur_stride, y)),
        load_row128(cur, cur_stride, y + 1), 1);
    dev = _mm256_add_epi64(dev, _mm256_sad_epu8(c, vmean));
  }
  return hsum_sad256(dev);
}

// ---------------------------------------------------------------------------
// Batched SAD: 2 candidates per 256-bit VPSADBW, shared current rows.
// ---------------------------------------------------------------------------

// Row SADs of candidates a and b, in 128-bit lanes 0 and 1, each split
// over its lane's two 64-bit halves.
inline __m256i sad_row_pair(__m256i c, const std::uint8_t* a,
                            const std::uint8_t* b) {
  return _mm256_sad_epu8(
      c, _mm256_inserti128_si256(_mm256_castsi128_si256(x86_loadu(a)),
                                 x86_loadu(b), 1));
}

// Pair k = (2k, 2k+1) shifted up 16k bits puts candidate 2k's halves in
// words k and k + 4 of lane 0 and candidate 2k+1's in lane 1, so one
// 16-bit add per row accumulates all N (the kernels_x86_128.inl bound: no
// word wraps). The fold adds the halves, and interleaving the two lanes'
// words restores candidate order: row total i lands in word i.
template <int N>
void sad_16x16_xn_avx2(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* const refs[N], int ref_stride,
                       std::uint16_t rows[16][N]) {
  static_assert(N == 4 || N == 8);
  __m256i acc = _mm256_setzero_si256();
  for (int y = 0; y < 16; ++y) {
    __m128i c128 = load_row128(cur, cur_stride, y);
    __m256i c = _mm256_inserti128_si256(_mm256_castsi128_si256(c128), c128, 1);
    const std::ptrdiff_t roff = static_cast<std::ptrdiff_t>(y) * ref_stride;
    __m256i packed = _mm256_or_si256(
        sad_row_pair(c, refs[0] + roff, refs[1] + roff),
        _mm256_slli_epi64(sad_row_pair(c, refs[2] + roff, refs[3] + roff),
                          16));
    if constexpr (N == 8) {
      packed = _mm256_or_si256(
          packed,
          _mm256_or_si256(
              _mm256_slli_epi64(
                  sad_row_pair(c, refs[4] + roff, refs[5] + roff), 32),
              _mm256_slli_epi64(
                  sad_row_pair(c, refs[6] + roff, refs[7] + roff), 48)));
    }
    acc = _mm256_add_epi16(acc, packed);
    const __m256i folded = _mm256_add_epi16(acc, _mm256_bsrli_epi128(acc, 8));
    const __m128i totals =
        _mm_unpacklo_epi16(_mm256_castsi256_si128(folded),
                           _mm256_extracti128_si256(folded, 1));
    if constexpr (N == 4) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(rows[y]), totals);
    } else {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(rows[y]), totals);
    }
  }
}

// ---------------------------------------------------------------------------
// DCT: 8-lane VPMADDWD formulation (math documented in kernels_x86_128.inl)
// ---------------------------------------------------------------------------

inline __m256i avx2_dct_table(const std::int32_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

inline __m256i avx2_q28_round(__m256i k) {
  const __m256i bias = _mm256_set1_epi32(1 << 12);
  return _mm256_add_epi32(_mm256_srai_epi32(_mm256_add_epi32(k, bias), 13),
                          _mm256_srai_epi32(k, 31));
}

// Packs two 8-lane int32 rows into one 16-lane int16 register in row order
// and applies the coefficient clamp. |values| <= 13451, so PACKS never
// saturates before the explicit clamp.
inline __m256i avx2_clamp_rows(__m256i r0, __m256i r1) {
  __m256i packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1),
                                            _MM_SHUFFLE(3, 1, 2, 0));
  return _mm256_min_epi16(
      _mm256_max_epi16(packed, _mm256_set1_epi16(-2048)),
      _mm256_set1_epi16(2047));
}

void forward_dct_8x8_avx2(const std::int16_t* input, std::int16_t* output) {
  const __m256i half = _mm256_set1_epi32(1 << 14);
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  // Pass A (rows): Y[x][v] = sum_y in[x][y] * B[v][y]; each int16 y-pair of
  // row x broadcasts against the pair-interleaved basis rows.
  __m256i yv[8];
  for (int x = 0; x < 8; ++x) {
    __m256i acc = _mm256_setzero_si256();
    for (int q = 0; q < 4; ++q) {
      std::int32_t pair;
      std::memcpy(&pair, input + x * 8 + 2 * q, sizeof(pair));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_set1_epi32(pair),
                                 avx2_dct_table(kDctPairs.row[q])));
    }
    yv[x] = acc;
  }
  // Split Y = hi * 2^15 + lo (both int16-exact) and interleave adjacent x.
  __m256i hp[4], lp[4];
  for (int p = 0; p < 4; ++p) {
    __m256i h0 = _mm256_srai_epi32(_mm256_add_epi32(yv[2 * p], half), 15);
    __m256i l0 = _mm256_sub_epi32(yv[2 * p], _mm256_slli_epi32(h0, 15));
    __m256i h1 = _mm256_srai_epi32(_mm256_add_epi32(yv[2 * p + 1], half), 15);
    __m256i l1 = _mm256_sub_epi32(yv[2 * p + 1], _mm256_slli_epi32(h1, 15));
    hp[p] = _mm256_or_si256(_mm256_and_si256(h0, mask16),
                            _mm256_slli_epi32(h1, 16));
    lp[p] = _mm256_or_si256(_mm256_and_si256(l0, mask16),
                            _mm256_slli_epi32(l1, 16));
  }
  // Pass B: F[u][v] = sum_x B[u][x] * Y[x][v]; Q28 finish in int32.
  for (int u = 0; u < 8; u += 2) {
    __m256i rounded[2];
    for (int k = 0; k < 2; ++k) {
      __m256i fh = _mm256_setzero_si256();
      __m256i fl = _mm256_setzero_si256();
      for (int p = 0; p < 4; ++p) {
        __m256i w = _mm256_set1_epi32(kDctPairs.row[p][u + k]);
        fh = _mm256_add_epi32(fh, _mm256_madd_epi16(hp[p], w));
        fl = _mm256_add_epi32(fl, _mm256_madd_epi16(lp[p], w));
      }
      rounded[k] =
          avx2_q28_round(_mm256_add_epi32(fh, _mm256_srai_epi32(fl, 15)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(output + u * 8),
                        avx2_clamp_rows(rounded[0], rounded[1]));
  }
}

void inverse_dct_8x8_avx2(const std::int16_t* input, std::int16_t* output) {
  const __m256i half = _mm256_set1_epi32(1 << 14);
  // Pass 1: tmp[x][v] = sum_u B[u][x] * F[u][v]; interleave input-row pairs
  // over u so VPMADDWD consumes (F[2p][v], F[2p+1][v]) per lane.
  __m256i ilv[4];
  for (int p = 0; p < 4; ++p) {
    __m128i r0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(input + (2 * p) * 8));
    __m128i r1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(input + (2 * p + 1) * 8));
    ilv[p] = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_unpacklo_epi16(r0, r1)),
        _mm_unpackhi_epi16(r0, r1), 1);
  }
  for (int x = 0; x < 8; x += 2) {
    __m256i rounded[2];
    for (int k = 0; k < 2; ++k) {
      __m256i t = _mm256_setzero_si256();
      for (int p = 0; p < 4; ++p) {
        t = _mm256_add_epi32(
            t, _mm256_madd_epi16(_mm256_set1_epi32(kDctPairs.col[p][x + k]),
                                 ilv[p]));
      }
      // Split hi/lo, pack pairs through the stack, broadcast against the
      // basis column-pair vectors: X[x][y] = sum_v tmp[x][v] * B[v][y].
      __m256i th = _mm256_srai_epi32(_mm256_add_epi32(t, half), 15);
      __m256i tl = _mm256_sub_epi32(t, _mm256_slli_epi32(th, 15));
      alignas(32) std::int32_t buf[8];
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(buf),
          _mm256_permute4x64_epi64(_mm256_packs_epi32(th, tl),
                                   _MM_SHUFFLE(3, 1, 2, 0)));
      __m256i xh = _mm256_setzero_si256();
      __m256i xl = _mm256_setzero_si256();
      for (int q = 0; q < 4; ++q) {
        __m256i bv = avx2_dct_table(kDctPairs.col[q]);
        xh = _mm256_add_epi32(
            xh, _mm256_madd_epi16(_mm256_set1_epi32(buf[q]), bv));
        xl = _mm256_add_epi32(
            xl, _mm256_madd_epi16(_mm256_set1_epi32(buf[4 + q]), bv));
      }
      rounded[k] =
          avx2_q28_round(_mm256_add_epi32(xh, _mm256_srai_epi32(xl, 15)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(output + x * 8),
                        avx2_clamp_rows(rounded[0], rounded[1]));
  }
}

// ---------------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------------

// Restores 16 int32 lane-pairs to the original int16 element order after
// _mm256_packs_epi32's within-128-lane interleave.
inline __m256i pack_epi32_ordered(__m256i lo, __m256i hi) {
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(lo, hi),
                                  _MM_SHUFFLE(3, 1, 2, 0));
}

int quantize_ac_avx2(std::int16_t* block, int first, int qp, bool intra) {
  PB_DCHECK(first == 0 || first == 1);
  PB_CHECK(qp >= kMinQp && qp <= kMaxQp);
  const int d = 2 * qp;
  const __m256i vmagic = _mm256_set1_epi32((1 << 18) / d + 1);
  const __m256i vbias = _mm256_set1_epi32(intra ? 0 : qp / 2);
  const __m256i vmax = _mm256_set1_epi32(kMaxLevel);
  const __m256i zero = _mm256_setzero_si256();
  const std::int16_t saved_dc = block[0];

  auto level_of = [&](__m256i x) {
    __m256i mag = _mm256_abs_epi32(x);
    __m256i num = _mm256_max_epi32(_mm256_sub_epi32(mag, vbias), zero);
    __m256i lvl = _mm256_srli_epi32(_mm256_mullo_epi32(num, vmagic), 18);
    lvl = _mm256_min_epi32(lvl, vmax);
    return _mm256_sign_epi32(lvl, x);  // negates for x<0, zeroes for x==0
  };

  int nonzero = 0;
  for (int i = 0; i < 64; i += 16) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i));
    __m256i xlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
    __m256i xhi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1));
    __m256i packed = pack_epi32_ordered(level_of(xlo), level_of(xhi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i), packed);
    std::uint32_t zero_mask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(packed, zero)));
    if (i == 0 && first == 1) zero_mask |= 0x3u;  // DC slot doesn't count
    nonzero += 16 - __builtin_popcount(zero_mask) / 2;
  }
  if (first == 1) block[0] = saved_dc;
  return nonzero;
}

void dequantize_ac_avx2(std::int16_t* block, int first, int qp) {
  PB_DCHECK(first == 0 || first == 1);
  const __m256i vqp = _mm256_set1_epi32(qp);
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i veven = _mm256_set1_epi32(qp % 2 == 0 ? 1 : 0);
  const __m256i vmax = _mm256_set1_epi32(2047);
  const std::int16_t saved_dc = block[0];

  auto rec_of = [&](__m256i x) {
    __m256i mag = _mm256_abs_epi32(x);
    // |REC| = QP * (2|LEVEL| + 1), minus 1 when QP is even (oddification).
    __m256i rec = _mm256_mullo_epi32(
        vqp, _mm256_add_epi32(_mm256_slli_epi32(mag, 1), vone));
    rec = _mm256_min_epi32(_mm256_sub_epi32(rec, veven), vmax);
    return _mm256_sign_epi32(rec, x);  // LEVEL==0 reconstructs to 0
  };

  for (int i = 0; i < 64; i += 16) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i));
    __m256i xlo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v));
    __m256i xhi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        pack_epi32_ordered(rec_of(xlo), rec_of(xhi)));
  }
  if (first == 1) block[0] = saved_dc;
}

}  // namespace

const KernelTable* avx2_table_or_null() {
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.backend = Backend::kAvx2;
    t.name = "avx2";
    auto adopt = [&t](KernelId id) {
      t.origin[static_cast<int>(id)] = Backend::kAvx2;
    };
    t.sad_16x16 = &sad_16x16_avx2;
    adopt(KernelId::kSad16x16);
    t.sad_self_16x16 = &sad_self_16x16_avx2;
    adopt(KernelId::kSadSelf16x16);
    t.sad_16x16_x4 = &sad_16x16_xn_avx2<4>;
    adopt(KernelId::kSad16x16X4);
    t.sad_16x16_x8 = &sad_16x16_xn_avx2<8>;
    adopt(KernelId::kSad16x16X8);
    t.sad_16x16_hpel_cutoff = &sad_16x16_hpel_cutoff_128;
    adopt(KernelId::kSad16x16HpelCutoff);
    t.forward_dct_8x8 = &forward_dct_8x8_avx2;
    adopt(KernelId::kForwardDct8x8);
    t.inverse_dct_8x8 = &inverse_dct_8x8_avx2;
    adopt(KernelId::kInverseDct8x8);
    t.quantize_ac = &quantize_ac_avx2;
    adopt(KernelId::kQuantizeAc);
    t.dequantize_ac = &dequantize_ac_avx2;
    adopt(KernelId::kDequantizeAc);
    t.mc_predict = &mc_predict_128;
    adopt(KernelId::kMcPredict);
    t.sub_pred_8x8 = &sub_pred_8x8_128;
    adopt(KernelId::kSubPred8x8);
    t.add_pred_8x8 = &add_pred_8x8_128;
    adopt(KernelId::kAddPred8x8);
    return t;
  }();
  return &table;
}

}  // namespace pbpair::codec::kernels

#else  // !defined(__AVX2__)

namespace pbpair::codec::kernels {
const KernelTable* avx2_table_or_null() { return nullptr; }
}  // namespace pbpair::codec::kernels

#endif
