// SSE2 kernels. PSADBW computes the sum of absolute byte differences
// exactly, so the SAD kernels return the same integers as the scalar loop.
// The DCT/IDCT use the PMADDWD formulation from kernels_x86_128.inl (exact,
// see proofs there). Quant and dequant need SSE4.1+ integer multiplies to
// stay bit-exact, so on a bare-SSE2 selection they fall back to the scalar
// reference — recorded honestly in the table's per-kernel origin.
#include "codec/kernels/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>

#include "codec/kernels/dct_tables.h"

namespace pbpair::codec::kernels {
namespace {

#define PBPAIR_X86_128_DCT 1
#define PBPAIR_X86_128_SADX 1
#include "codec/kernels/kernels_x86_128.inl"
#undef PBPAIR_X86_128_SADX
#undef PBPAIR_X86_128_DCT

std::int64_t sad_16x16_sse2(const std::uint8_t* cur, int cur_stride,
                            const std::uint8_t* ref, int ref_stride) {
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < 16; ++y) {
    __m128i c = x86_loadu(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    __m128i r = x86_loadu(ref + static_cast<std::ptrdiff_t>(y) * ref_stride);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(c, r));
  }
  return x86_sad_hsum(acc);
}

std::int64_t sad_self_16x16_sse2(const std::uint8_t* cur, int cur_stride) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  for (int y = 0; y < 16; ++y) {
    __m128i c = x86_loadu(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    acc = _mm_add_epi64(acc, _mm_sad_epu8(c, zero));
  }
  std::int64_t sum = x86_sad_hsum(acc);
  // Truncated mean, exactly like the scalar reference; it fits a byte, so
  // PSADBW against the broadcast mean is |p - mean| exactly.
  const int mean = static_cast<int>(sum / 256);
  const __m128i vmean = _mm_set1_epi8(static_cast<char>(mean));
  __m128i dev = zero;
  for (int y = 0; y < 16; ++y) {
    __m128i c = x86_loadu(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    dev = _mm_add_epi64(dev, _mm_sad_epu8(c, vmean));
  }
  return x86_sad_hsum(dev);
}

}  // namespace

const KernelTable* sse2_table_or_null() {
  // Function-local static: initialized on first use, so referencing the
  // scalar table's function pointers never races static init order.
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.backend = Backend::kSse2;
    t.name = "sse2";
    auto adopt = [&t](KernelId id) {
      t.origin[static_cast<int>(id)] = Backend::kSse2;
    };
    t.sad_16x16 = &sad_16x16_sse2;
    adopt(KernelId::kSad16x16);
    t.sad_self_16x16 = &sad_self_16x16_sse2;
    adopt(KernelId::kSadSelf16x16);
    t.sad_16x16_x4 = &sad_16x16_x4_128;
    adopt(KernelId::kSad16x16X4);
    t.sad_16x16_x8 = &sad_16x16_x8_128;
    adopt(KernelId::kSad16x16X8);
    t.sad_16x16_hpel_cutoff = &sad_16x16_hpel_cutoff_128;
    adopt(KernelId::kSad16x16HpelCutoff);
    t.forward_dct_8x8 = &forward_dct_8x8_128;
    adopt(KernelId::kForwardDct8x8);
    t.inverse_dct_8x8 = &inverse_dct_8x8_128;
    adopt(KernelId::kInverseDct8x8);
    t.mc_predict = &mc_predict_128;
    adopt(KernelId::kMcPredict);
    t.sub_pred_8x8 = &sub_pred_8x8_128;
    adopt(KernelId::kSubPred8x8);
    t.add_pred_8x8 = &add_pred_8x8_128;
    adopt(KernelId::kAddPred8x8);
    // quantize_ac / dequantize_ac stay on the scalar reference: exact
    // division needs SSE4.1 PMULLD. Their origin stays kScalar.
    return t;
  }();
  return &table;
}

}  // namespace pbpair::codec::kernels

#else  // !defined(__SSE2__)

namespace pbpair::codec::kernels {
const KernelTable* sse2_table_or_null() { return nullptr; }
}  // namespace pbpair::codec::kernels

#endif
