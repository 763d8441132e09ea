// Pixel-kernel dispatch: scalar reference vs SIMD implementations.
//
// Every hot inner loop of the codec (SAD — single, batched, and half-pel —
// DCT/IDCT, quant/dequant, and motion-compensated prediction) is a kernel
// behind a function-pointer table selected once at startup from the CPU's
// capabilities (overridable with PBPAIR_KERNELS=scalar|sse2|avx2|neon|auto).
//
// The critical invariant: a kernel computes EXACTLY the same result as the
// scalar reference — same values, same early-exit row counts — and carries
// NO energy metering of its own. `energy::OpCounters` accounting lives in
// the public wrappers (codec/sad.h, codec/quant.h, codec/mc.h) and is
// derived analytically (pixels visited, rows processed before cutoff), so
// the energy model is bit-identical no matter which backend ran. This is
// what lets the reproduction be fast without perturbing the paper's
// numbers.
//
// Every table also records, per kernel slot, which backend's implementation
// actually fills it (`origin`). A backend that lacks a vector path for some
// kernel inherits the scalar function — and the origin record makes that
// fallback visible to benches and tests, so a no-op vector path can never
// masquerade as a speedup.
//
// Kernels operate on raw rows (pointer + stride in pixels) so they carry no
// dependency on video::Plane; bounds checking is the wrappers' job.
#pragma once

#include <cstdint>
#include <vector>

namespace pbpair::codec::kernels {

enum class Backend {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

inline constexpr int kNumBackends = 4;

/// One entry per KernelTable function-pointer slot, used to index the
/// per-kernel `origin` record.
enum class KernelId {
  kSad16x16 = 0,
  kSadSelf16x16,
  kSad16x16X4,
  kSad16x16X8,
  kSad16x16HpelCutoff,
  kForwardDct8x8,
  kInverseDct8x8,
  kQuantizeAc,
  kDequantizeAc,
  kMcPredict,
  kSubPred8x8,
  kAddPred8x8,
  kCount,
};

inline constexpr int kNumKernels = static_cast<int>(KernelId::kCount);

struct KernelTable {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";

  /// SAD over a full 16x16 block. Strides are in pixels.
  std::int64_t (*sad_16x16)(const std::uint8_t* cur, int cur_stride,
                            const std::uint8_t* ref, int ref_stride);

  /// Deviation of a 16x16 block from its own (truncated) mean.
  std::int64_t (*sad_self_16x16)(const std::uint8_t* cur, int cur_stride);

  /// Batched SADs with per-row running totals: scores 4 (or 8) candidate
  /// reference blocks against ONE current block per call, x264
  /// sad_x4-style. `rows[y][i]` is candidate i's SAD over block rows 0..y,
  /// so rows[15][i] is its full SAD; the largest value, 16 * 16 * 255 =
  /// 65280, fits 16 bits. No cutoff — the batched motion-search wavefront
  /// (codec/motion_search.cpp) reads each candidate's early-exit row from
  /// the table (the first y with rows[y][i] >= cutoff, exactly where
  /// sad_16x16_cutoff_scalar stops), so the kernels stay branch-free and
  /// share the current-block rows across candidates.
  void (*sad_16x16_x4)(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* const refs[4], int ref_stride,
                       std::uint16_t rows[16][4]);
  void (*sad_16x16_x8)(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* const refs[8], int ref_stride,
                       std::uint16_t rows[16][8]);

  /// Fused half-pel interpolation + SAD with the scalar per-row cutoff.
  /// `ref` points at the FULL-PEL floor position; hx/hy in {0,1} select the
  /// interpolation phase ((a+b+1)>>1 one-dimensional halves,
  /// (a+b+c+d+2)>>2 for the center). Reads hx extra columns / hy extra
  /// rows past the 16x16 block; the wrapper (codec/mc.cpp) guarantees those
  /// reads are in bounds, building an edge-clamped patch when they are not.
  std::int64_t (*sad_16x16_hpel_cutoff)(const std::uint8_t* cur,
                                        int cur_stride,
                                        const std::uint8_t* ref,
                                        int ref_stride, int hx, int hy,
                                        std::int64_t cutoff,
                                        int* rows_processed);

  /// 8x8 forward/inverse DCT, bit-identical to the Q14 integer reference
  /// in kernels_scalar.cpp for all inputs in [-2048, 2047] (every codec
  /// input: pixels, residuals, clamped coefficients). Integer accumulation
  /// is exact, so SIMD lane reordering cannot change the result.
  void (*forward_dct_8x8)(const std::int16_t* input, std::int16_t* output);
  void (*inverse_dct_8x8)(const std::int16_t* input, std::int16_t* output);

  /// Quantizes block[first..64) in place (H.263 rules, see codec/quant.h);
  /// returns the number of nonzero levels produced. block[0..first) is
  /// left untouched. Requires |block[i]| <= 4095 (DCT output is clamped to
  /// [-2048, 2047], so every codec input satisfies this; the SIMD exact
  /// division-by-2*qp trick is proven for that range).
  int (*quantize_ac)(std::int16_t* block, int first, int qp, bool intra);

  /// Dequantizes block[first..64) in place; block[0..first) untouched.
  void (*dequantize_ac)(std::int16_t* block, int first, int qp);

  /// Builds a w x h prediction block (dst stride == w, w in {8, 16}) from
  /// `src`, which points at the FULL-PEL floor position. hx/hy select the
  /// half-pel phase exactly as in sad_16x16_hpel_cutoff; phase (0,0) is a
  /// plain copy. Reads w+hx columns and h+hy rows — the wrapper
  /// (codec/mc.cpp) guarantees bounds / builds the clamped edge patch.
  void (*mc_predict)(const std::uint8_t* src, int src_stride,
                     std::uint8_t* dst, int w, int h, int hx, int hy);

  /// residual[64] = cur 8x8 block - pred 8x8 block (row-major int16).
  void (*sub_pred_8x8)(const std::uint8_t* cur, int cur_stride,
                       const std::uint8_t* pred, int pred_stride,
                       std::int16_t* residual);

  /// dst 8x8 block = clamp_to_[0,255](pred + residual).
  void (*add_pred_8x8)(std::uint8_t* dst, int dst_stride,
                       const std::uint8_t* pred, int pred_stride,
                       const std::int16_t* residual);

  /// origin[i]: the backend whose implementation fills kernel slot i. A
  /// slot whose origin differs from `backend` is a fallback (e.g. SSE2
  /// lacks the integer multiplies quantize needs, so its quantize_ac slot
  /// has origin kScalar). bench/micro_kernels reports this per kernel.
  Backend origin[kNumKernels] = {};

  Backend origin_of(KernelId id) const {
    return origin[static_cast<int>(id)];
  }
};

/// The scalar reference table (always available; the other backends are
/// validated against it in tests/test_kernels.cpp).
const KernelTable& scalar_table();

/// SAD with per-row early termination, the reference the batched replay
/// reproduces: after each completed row the partial sum is compared
/// against `cutoff` and the loop returns as soon as sum >= cutoff.
/// `*rows_processed` is set to the number of rows fully accumulated
/// (1..16); the wrapper meters 16 pixels per row. In the codec only the
/// scalar backend's sequential motion search calls it, so it has no table
/// slot.
std::int64_t sad_16x16_cutoff_scalar(const std::uint8_t* cur, int cur_stride,
                                     const std::uint8_t* ref, int ref_stride,
                                     std::int64_t cutoff,
                                     int* rows_processed);

/// Table for a specific backend, or nullptr when the backend was compiled
/// out or the running CPU lacks the instruction set.
const KernelTable* table_for(Backend backend);

/// Backends usable on this CPU, in ascending preference order
/// (scalar first).
std::vector<Backend> supported_backends();

/// The table in use. Selected on first call: the best supported backend,
/// unless the PBPAIR_KERNELS environment variable
/// (scalar|sse2|avx2|neon|auto) names another one.
const KernelTable& active();

/// Switches the active table; returns false (and keeps the current table)
/// when `backend` is unsupported. Intended for tests and benchmarks; safe
/// to call concurrently with readers (atomic pointer swap), but switching
/// mid-encode mixes backends within one frame — callers should switch at
/// run boundaries.
bool set_active(Backend backend);

Backend active_backend();

const char* backend_name(Backend backend);

const char* kernel_name(KernelId id);

}  // namespace pbpair::codec::kernels
