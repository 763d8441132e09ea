// AVX-512 kernels (F+BW+DQ+VL). Compiled with -mavx512* when the compiler
// supports it (see src/codec/CMakeLists.txt); the dispatcher only hands
// this table out after a runtime CPUID check for all four extensions.
//
// The 512-bit win here is quant/dequant (16 int32 lanes per op with
// mask-register sign handling instead of VPSIGND). Every other slot
// inherits the AVX2 implementation — recorded as such in the per-kernel
// origin. That includes the batched x4/x8 SADs: with per-row running
// totals to store, a 512-bit body was no faster than the AVX2 one, whose
// 16-bit packed accumulators need no per-row narrowing.
#include "codec/kernels/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "codec/quant.h"
#include "common/check.h"

namespace pbpair::codec::kernels {

// Defined in kernels_avx2.cpp; the AVX-512 table inherits its kernels.
const KernelTable* avx2_table_or_null();

namespace {

// ---------------------------------------------------------------------------
// Quantization: one 16-lane int32 vector per 16 coefficients, sign and
// zeroing via mask registers (AVX-512 has no VPSIGND).
// ---------------------------------------------------------------------------

int quantize_ac_avx512(std::int16_t* block, int first, int qp, bool intra) {
  PB_DCHECK(first == 0 || first == 1);
  PB_CHECK(qp >= kMinQp && qp <= kMaxQp);
  const int d = 2 * qp;
  const __m512i vmagic = _mm512_set1_epi32((1 << 18) / d + 1);
  const __m512i vbias = _mm512_set1_epi32(intra ? 0 : qp / 2);
  const __m512i vmax = _mm512_set1_epi32(kMaxLevel);
  const __m512i zero = _mm512_setzero_si512();
  const std::int16_t saved_dc = block[0];

  int nonzero = 0;
  for (int i = 0; i < 64; i += 16) {
    __m512i x = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i)));
    __m512i mag = _mm512_abs_epi32(x);
    __m512i num = _mm512_max_epi32(_mm512_sub_epi32(mag, vbias), zero);
    __m512i lvl = _mm512_srli_epi32(_mm512_mullo_epi32(num, vmagic), 18);
    lvl = _mm512_min_epi32(lvl, vmax);
    const __mmask16 neg = _mm512_cmplt_epi32_mask(x, zero);
    lvl = _mm512_mask_sub_epi32(lvl, neg, zero, lvl);
    __mmask16 nz = _mm512_test_epi32_mask(lvl, lvl);
    if (i == 0 && first == 1) nz &= static_cast<__mmask16>(0xFFFE);
    nonzero += __builtin_popcount(static_cast<unsigned>(nz));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        _mm512_cvtepi32_epi16(lvl));
  }
  if (first == 1) block[0] = saved_dc;
  return nonzero;
}

void dequantize_ac_avx512(std::int16_t* block, int first, int qp) {
  PB_DCHECK(first == 0 || first == 1);
  const __m512i vqp = _mm512_set1_epi32(qp);
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i veven = _mm512_set1_epi32(qp % 2 == 0 ? 1 : 0);
  const __m512i vmax = _mm512_set1_epi32(2047);
  const __m512i zero = _mm512_setzero_si512();
  const std::int16_t saved_dc = block[0];

  for (int i = 0; i < 64; i += 16) {
    __m512i x = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + i)));
    __m512i mag = _mm512_abs_epi32(x);
    // |REC| = QP * (2|LEVEL| + 1), minus 1 when QP is even (oddification).
    __m512i rec = _mm512_mullo_epi32(
        vqp, _mm512_add_epi32(_mm512_slli_epi32(mag, 1), vone));
    rec = _mm512_min_epi32(_mm512_sub_epi32(rec, veven), vmax);
    const __mmask16 neg = _mm512_cmplt_epi32_mask(x, zero);
    rec = _mm512_mask_sub_epi32(rec, neg, zero, rec);
    // LEVEL == 0 reconstructs to 0, not to QP - even.
    rec = _mm512_maskz_mov_epi32(_mm512_test_epi32_mask(x, x), rec);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + i),
                        _mm512_cvtepi32_epi16(rec));
  }
  if (first == 1) block[0] = saved_dc;
}

}  // namespace

const KernelTable* avx512_table_or_null() {
  static const KernelTable table = [] {
    // Inherit everything AVX2 provides (origin records carry over), then
    // override quant/dequant, where 512-bit lanes pay off.
    const KernelTable* base = avx2_table_or_null();
    KernelTable t = base != nullptr ? *base : scalar_table();
    t.backend = Backend::kAvx512;
    t.name = "avx512";
    auto adopt = [&t](KernelId id) {
      t.origin[static_cast<int>(id)] = Backend::kAvx512;
    };
    t.quantize_ac = &quantize_ac_avx512;
    adopt(KernelId::kQuantizeAc);
    t.dequantize_ac = &dequantize_ac_avx512;
    adopt(KernelId::kDequantizeAc);
    return t;
  }();
  return &table;
}

}  // namespace pbpair::codec::kernels

#else  // !AVX-512 F+BW+DQ+VL

namespace pbpair::codec::kernels {
const KernelTable* avx512_table_or_null() { return nullptr; }
}  // namespace pbpair::codec::kernels

#endif
