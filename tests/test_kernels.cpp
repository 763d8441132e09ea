// Kernel-dispatch equivalence: every SIMD backend must reproduce the
// scalar reference bit-for-bit — same SAD/DCT/quant outputs, same
// early-exit row counts, and therefore identical energy::OpCounters
// deltas. Randomized over edge alignments, strides, and cutoff positions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/encoder.h"
#include "codec/kernels/kernels.h"
#include "codec/mc.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/sad.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "sim/scheme.h"
#include "video/frame.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

using codec::kernels::Backend;
using codec::kernels::KernelTable;

std::vector<const KernelTable*> simd_tables() {
  std::vector<const KernelTable*> tables;
  for (Backend backend : codec::kernels::supported_backends()) {
    if (backend == Backend::kScalar) continue;
    tables.push_back(codec::kernels::table_for(backend));
  }
  return tables;
}

// A buffer of noisy pixels with an odd stride so SIMD loads hit every
// alignment.
struct PixelField {
  explicit PixelField(std::uint64_t seed, int stride = 61, int rows = 96)
      : stride(stride), rows(rows), data(static_cast<std::size_t>(stride) * rows) {
    common::Pcg32 rng(seed);
    for (std::uint8_t& p : data) {
      p = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const std::uint8_t* at(int x, int y) const {
    return data.data() + static_cast<std::size_t>(y) * stride + x;
  }
  int stride;
  int rows;
  std::vector<std::uint8_t> data;
};

TEST(Kernels, ScalarBackendAlwaysAvailable) {
  std::vector<Backend> backends = codec::kernels::supported_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Backend::kScalar);
  EXPECT_NE(codec::kernels::table_for(Backend::kScalar), nullptr);
}

TEST(Kernels, SadMatchesScalarAcrossAlignments) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(1), ref(2);
  common::Pcg32 rng(3);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 500; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      int rx = rng.next_in_range(0, ref.stride - 16);
      int ry = rng.next_in_range(0, ref.rows - 16);
      std::int64_t want = scalar.sad_16x16(cur.at(cx, cy), cur.stride,
                                           ref.at(rx, ry), ref.stride);
      std::int64_t got = simd->sad_16x16(cur.at(cx, cy), cur.stride,
                                         ref.at(rx, ry), ref.stride);
      ASSERT_EQ(want, got) << simd->name << " trial " << trial;
    }
  }
}

TEST(Kernels, SadSelfMatchesScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(8);
  for (const KernelTable* simd : simd_tables()) {
    // Uniform noise plus near-flat fields (mean truncation edge cases).
    for (std::uint64_t seed : {10ull, 11ull, 12ull}) {
      PixelField field(seed);
      for (int trial = 0; trial < 300; ++trial) {
        int cx = rng.next_in_range(0, field.stride - 16);
        int cy = rng.next_in_range(0, field.rows - 16);
        ASSERT_EQ(scalar.sad_self_16x16(field.at(cx, cy), field.stride),
                  simd->sad_self_16x16(field.at(cx, cy), field.stride))
            << simd->name << " seed " << seed << " trial " << trial;
      }
    }
  }
}

TEST(Kernels, DctMatchesScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(20);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::int16_t input[64];
      // Pixels, residuals, and full-range coefficients by turn.
      int lo = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? -255 : -2048);
      int hi = trial % 3 == 0 ? 255 : (trial % 3 == 1 ? 255 : 2047);
      for (std::int16_t& v : input) {
        v = static_cast<std::int16_t>(rng.next_in_range(lo, hi));
      }
      std::int16_t want[64], got[64];
      scalar.forward_dct_8x8(input, want);
      simd->forward_dct_8x8(input, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << simd->name << " fdct trial " << trial;
      scalar.inverse_dct_8x8(input, want);
      simd->inverse_dct_8x8(input, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << simd->name << " idct trial " << trial;
    }
  }
}

// What the scalar cutoff loop returns for `cutoff`, read off a batched
// kernel's per-row table: the first row whose running SAD reaches the
// cutoff, or the full SAD after row 16.
template <int N>
std::pair<std::int64_t, int> exit_from_rows(const std::uint16_t (&rows)[16][N],
                                            int lane, std::int64_t cutoff) {
  int y = 0;
  while (y < 15 && rows[y][lane] < cutoff) ++y;
  return {rows[y][lane], y + 1};
}

// The per-row contract of the batched kernels on every backend, scalar
// included: each lane's table yields the scalar cutoff loop's (sad, rows)
// for any cutoff, its last row is the full SAD, and every entry equals the
// scalar table's.
TEST(Kernels, BatchedSadMatchesScalarSingleCalls) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(60), ref(61);
  // All 0 against all 255 scores the largest SAD, 16 * 16 * 255 = 65280.
  const std::vector<std::uint8_t> black(16 * 16, 0), white(16 * 16, 255);
  common::Pcg32 rng(62);
  for (Backend backend : codec::kernels::supported_backends()) {
    const KernelTable* table = codec::kernels::table_for(backend);
    for (int trial = 0; trial < 401; ++trial) {
      const bool extreme = trial == 400;
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      const std::uint8_t* cur_block = extreme ? black.data() : cur.at(cx, cy);
      const int cur_stride = extreme ? 16 : cur.stride;
      const int ref_stride = extreme ? 16 : ref.stride;
      const std::uint8_t* refs[8];
      std::int64_t cutoffs[8];
      for (int i = 0; i < 8; ++i) {
        int rx = rng.next_in_range(0, ref.stride - 16);
        int ry = rng.next_in_range(0, ref.rows - 16);
        refs[i] = extreme ? white.data() : ref.at(rx, ry);
        switch ((trial + i) % 4) {
          case 0: cutoffs[i] = rng.next_in_range(-5, 5); break;
          case 1: cutoffs[i] = rng.next_in_range(1, 4000); break;
          case 2: cutoffs[i] = rng.next_in_range(4000, 40000); break;
          default: cutoffs[i] = 1'000'000; break;
        }
      }
      std::uint16_t got4[16][4], want4[16][4];
      std::uint16_t got8[16][8], want8[16][8];
      table->sad_16x16_x4(cur_block, cur_stride, refs, ref_stride, got4);
      table->sad_16x16_x8(cur_block, cur_stride, refs, ref_stride, got8);
      scalar.sad_16x16_x4(cur_block, cur_stride, refs, ref_stride, want4);
      scalar.sad_16x16_x8(cur_block, cur_stride, refs, ref_stride, want8);
      ASSERT_EQ(0, std::memcmp(want4, got4, sizeof(got4)))
          << table->name << " x4 trial " << trial;
      ASSERT_EQ(0, std::memcmp(want8, got8, sizeof(got8)))
          << table->name << " x8 trial " << trial;
      for (int i = 0; i < 8; ++i) {
        int want_rows = -1;
        const std::int64_t want_sad = codec::kernels::sad_16x16_cutoff_scalar(
            cur_block, cur_stride, refs[i], ref_stride, cutoffs[i], &want_rows);
        const std::int64_t full =
            scalar.sad_16x16(cur_block, cur_stride, refs[i], ref_stride);
        const std::pair<std::int64_t, int> want{want_sad, want_rows};
        ASSERT_EQ(want, exit_from_rows(got8, i, cutoffs[i]))
            << table->name << " x8 lane " << i << " trial " << trial;
        ASSERT_EQ(full, got8[15][i])
            << table->name << " x8 lane " << i << " trial " << trial;
        if (i < 4) {
          ASSERT_EQ(want, exit_from_rows(got4, i, cutoffs[i]))
              << table->name << " x4 lane " << i << " trial " << trial;
          ASSERT_EQ(full, got4[15][i])
              << table->name << " x4 lane " << i << " trial " << trial;
        }
      }
      if (extreme) {
        ASSERT_EQ(got8[15][7], 65280) << table->name;
      }
    }
  }
}

TEST(Kernels, HalfpelSadMatchesScalarForAllPhasesIncludingRowCounts) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(70), ref(71);
  common::Pcg32 rng(72);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 1000; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      // The interpolation reads a 17x17 envelope at (rx, ry).
      int rx = rng.next_in_range(0, ref.stride - 17);
      int ry = rng.next_in_range(0, ref.rows - 17);
      const int hx = trial & 1;
      const int hy = (trial >> 1) & 1;
      std::int64_t cutoff;
      switch (trial % 4) {
        case 0: cutoff = rng.next_in_range(-5, 5); break;
        case 1: cutoff = rng.next_in_range(1, 4000); break;
        case 2: cutoff = rng.next_in_range(4000, 40000); break;
        default: cutoff = 1'000'000; break;
      }
      int want_rows = -1, got_rows = -1;
      std::int64_t want = scalar.sad_16x16_hpel_cutoff(
          cur.at(cx, cy), cur.stride, ref.at(rx, ry), ref.stride, hx, hy,
          cutoff, &want_rows);
      std::int64_t got = simd->sad_16x16_hpel_cutoff(
          cur.at(cx, cy), cur.stride, ref.at(rx, ry), ref.stride, hx, hy,
          cutoff, &got_rows);
      ASSERT_EQ(want, got) << simd->name << " phase (" << hx << "," << hy
                           << ") trial " << trial;
      ASSERT_EQ(want_rows, got_rows)
          << simd->name << " phase (" << hx << "," << hy << ") trial "
          << trial;
    }
  }
}

TEST(Kernels, McPredictMatchesScalarForAllPhasesAndBlockSizes) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField ref(80);
  common::Pcg32 rng(81);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 1000; ++trial) {
      const int w = trial % 2 == 0 ? 16 : 8;
      const int h = w;
      int rx = rng.next_in_range(0, ref.stride - (w + 1));
      int ry = rng.next_in_range(0, ref.rows - (h + 1));
      const int hx = (trial >> 1) & 1;
      const int hy = (trial >> 2) & 1;
      std::uint8_t want[16 * 16], got[16 * 16];
      std::memset(want, 0xAB, sizeof(want));
      std::memset(got, 0xCD, sizeof(got));
      scalar.mc_predict(ref.at(rx, ry), ref.stride, want, w, h, hx, hy);
      simd->mc_predict(ref.at(rx, ry), ref.stride, got, w, h, hx, hy);
      ASSERT_EQ(0, std::memcmp(want, got, static_cast<std::size_t>(w) * h))
          << simd->name << " w " << w << " phase (" << hx << "," << hy
          << ") trial " << trial;
    }
  }
}

TEST(Kernels, ResidualKernelsMatchScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(90), pred(91);
  common::Pcg32 rng(92);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 500; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 8);
      int cy = rng.next_in_range(0, cur.rows - 8);
      int px = rng.next_in_range(0, pred.stride - 8);
      int py = rng.next_in_range(0, pred.rows - 8);

      std::int16_t want_res[64], got_res[64];
      scalar.sub_pred_8x8(cur.at(cx, cy), cur.stride, pred.at(px, py),
                          pred.stride, want_res);
      simd->sub_pred_8x8(cur.at(cx, cy), cur.stride, pred.at(px, py),
                         pred.stride, got_res);
      ASSERT_EQ(0, std::memcmp(want_res, got_res, sizeof(want_res)))
          << simd->name << " sub trial " << trial;

      // IDCT-range residuals, including ones that clamp on both ends.
      std::int16_t residual[64];
      for (std::int16_t& v : residual) {
        v = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
      }
      std::uint8_t want_px[8 * 9], got_px[8 * 9];
      std::memset(want_px, 0x11, sizeof(want_px));
      std::memset(got_px, 0x22, sizeof(got_px));
      const int dst_stride = 9;  // deliberately != 8: checks stride handling
      scalar.add_pred_8x8(want_px, dst_stride, pred.at(px, py), pred.stride,
                          residual);
      simd->add_pred_8x8(got_px, dst_stride, pred.at(px, py), pred.stride,
                         residual);
      for (int row = 0; row < 8; ++row) {
        ASSERT_EQ(0, std::memcmp(want_px + row * dst_stride,
                                 got_px + row * dst_stride, 8))
            << simd->name << " add row " << row << " trial " << trial;
      }
    }
  }
}

// Edge clamping goes through the public MC entry points: vectors that land
// outside the plane must produce identical predictions and identical
// mc/halfpel pixel metering on every backend (the kernels only ever see
// in-bounds memory; the wrapper's clamped-patch fallback is what's tested).
TEST(Kernels, PredictBlockEdgeClampIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame frame = seq.frame_at(2);
  const video::Plane& plane = frame.y();
  const Backend original = codec::kernels::active_backend();

  struct Run {
    std::vector<std::uint8_t> pred;
    energy::OpCounters ops;
  };
  std::vector<Run> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Run run;
    common::Pcg32 rng(100);  // same position stream per backend
    std::uint8_t pred[16 * 16];
    for (int trial = 0; trial < 400; ++trial) {
      const int w = trial % 2 == 0 ? 16 : 8;
      // Positions biased to straddle every plane edge, in half-pel units.
      int x2 = rng.next_in_range(-40, 2 * plane.width() + 8);
      int y2 = rng.next_in_range(-40, 2 * plane.height() + 8);
      codec::predict_block(plane, x2, y2, w, w, pred, run.ops);
      run.pred.insert(run.pred.end(), pred, pred + w * w);
    }
    runs.push_back(std::move(run));
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].pred, runs[i].pred) << "backend index " << i;
    EXPECT_EQ(runs[0].ops.mc_pixels, runs[i].ops.mc_pixels);
    EXPECT_EQ(runs[0].ops.mc_halfpel_pixels, runs[i].ops.mc_halfpel_pixels);
  }
}

TEST(Kernels, HalfpelSadEdgeClampIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame a = seq.frame_at(2);
  video::YuvFrame b = seq.frame_at(3);
  const Backend original = codec::kernels::active_backend();

  struct Run {
    std::int64_t sum = 0;
    energy::OpCounters ops;
  };
  std::vector<Run> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Run run;
    common::Pcg32 rng(110);
    for (int trial = 0; trial < 400; ++trial) {
      int cx = 16 * rng.next_in_range(0, a.y().width() / 16 - 1);
      int cy = 16 * rng.next_in_range(0, a.y().height() / 16 - 1);
      int rx2 = rng.next_in_range(-36, 2 * b.y().width() + 4);
      int ry2 = rng.next_in_range(-36, 2 * b.y().height() + 4);
      std::int64_t cutoff =
          trial % 3 == 0 ? rng.next_in_range(1, 4000) : 1'000'000;
      run.sum += codec::sad_16x16_halfpel(a.y(), cx, cy, b.y(), rx2, ry2,
                                          cutoff, run.ops);
    }
    runs.push_back(run);
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].sum, runs[i].sum) << "backend index " << i;
    EXPECT_EQ(runs[0].ops.sad_halfpel_ops, runs[i].ops.sad_halfpel_ops);
  }
}

TEST(Kernels, ScalarTableOriginsAreAllScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  for (int i = 0; i < codec::kernels::kNumKernels; ++i) {
    const auto id = static_cast<codec::kernels::KernelId>(i);
    EXPECT_EQ(scalar.origin_of(id), Backend::kScalar)
        << codec::kernels::kernel_name(id);
  }
}

TEST(Kernels, QuantizeMatchesScalarForAllQp) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(30);
  for (const KernelTable* simd : simd_tables()) {
    for (int qp = codec::kMinQp; qp <= codec::kMaxQp; ++qp) {
      for (int trial = 0; trial < 40; ++trial) {
        const bool intra = trial % 2 == 0;
        const int first = intra ? 1 : 0;
        std::int16_t want[64], got[64];
        for (int i = 0; i < 64; ++i) {
          // Full DCT output range plus values straddling quantizer steps.
          want[i] = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
          got[i] = want[i];
        }
        int want_nz = scalar.quantize_ac(want, first, qp, intra);
        int got_nz = simd->quantize_ac(got, first, qp, intra);
        ASSERT_EQ(want_nz, got_nz)
            << simd->name << " qp " << qp << " trial " << trial;
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << simd->name << " qp " << qp << " trial " << trial;
      }
    }
  }
}

TEST(Kernels, DequantizeMatchesScalarForAllQp) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(40);
  for (const KernelTable* simd : simd_tables()) {
    for (int qp = codec::kMinQp; qp <= codec::kMaxQp; ++qp) {
      for (int trial = 0; trial < 40; ++trial) {
        const int first = trial % 2;
        std::int16_t want[64], got[64];
        for (int i = 0; i < 64; ++i) {
          want[i] = static_cast<std::int16_t>(
              rng.next_in_range(-codec::kMaxLevel, codec::kMaxLevel));
          got[i] = want[i];
        }
        scalar.dequantize_ac(want, first, qp);
        simd->dequantize_ac(got, first, qp);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << simd->name << " qp " << qp << " trial " << trial;
      }
    }
  }
}

// The OpCounters invariant, end to end: running the public metered API
// with each backend yields identical counters AND identical results — on
// the cutoff path this exercises the analytic rows-visited accounting.
TEST(Kernels, OpCountersIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame a = seq.frame_at(3);
  video::YuvFrame b = seq.frame_at(4);
  common::Pcg32 rng(50);

  const Backend original = codec::kernels::active_backend();
  struct Probe {
    std::int64_t sum = 0;
    energy::OpCounters ops;
  };
  std::vector<Probe> probes;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Probe probe;
    common::Pcg32 local(51);  // same coordinate stream per backend
    for (int trial = 0; trial < 200; ++trial) {
      int cx = 16 * local.next_in_range(0, a.y().width() / 16 - 1);
      int cy = 16 * local.next_in_range(0, a.y().height() / 16 - 1);
      int rx = local.next_in_range(0, b.y().width() - 16);
      int ry = local.next_in_range(0, b.y().height() - 16);
      probe.sum += codec::sad_16x16(a.y(), cx, cy, b.y(), rx, ry, probe.ops);
      probe.sum += codec::sad_16x16_cutoff(a.y(), cx, cy, b.y(), rx, ry,
                                           local.next_in_range(0, 20000),
                                           probe.ops);
      probe.sum += codec::sad_self_16x16(a.y(), cx, cy, probe.ops);
    }
    probes.push_back(probe);
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < probes.size(); ++i) {
    EXPECT_EQ(probes[0].sum, probes[i].sum);
    EXPECT_EQ(probes[0].ops.sad_pixel_ops, probes[i].ops.sad_pixel_ops);
  }
}

// One backend's encode: bitstream and OpCounters (SAD calls and early
// exits included).
struct EncodeRun {
  std::vector<std::uint8_t> bytes;
  energy::OpCounters ops;
};

void expect_runs_identical(const std::vector<EncodeRun>& runs) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].bytes, runs[i].bytes) << "backend index " << i;
    EXPECT_EQ(0, std::memcmp(&runs[0].ops, &runs[i].ops,
                             sizeof(energy::OpCounters)))
        << "backend index " << i;
  }
}

// The two policies the digest tests encode with: no ME penalty, and PBPAIR,
// whose penalty the batched replay takes a whole batch at a time.
std::vector<sim::SchemeSpec> digest_schemes() {
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.1;
  return {sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair)};
}

// True when the policy charges a penalty somewhere, i.e. some sigma < 1.
bool penalty_live(const codec::RefreshPolicy& policy, int mb_cols,
                  int mb_rows) {
  if (!policy.has_me_penalty()) return false;
  for (int my = 0; my < mb_rows; ++my) {
    for (int mx = 0; mx < mb_cols; ++mx) {
      if (policy.me_penalty(mx, my, codec::MotionVector{0, 0}) > 0) {
        return true;
      }
    }
  }
  return false;
}

// Encodes `frames` frames of `seq` under `scheme` on every backend and
// expects the same bitstream and the same operation counters, SAD calls
// and early exits included, from each.
void expect_encodes_identical(const video::SyntheticSequence& seq, int frames,
                              const codec::EncoderConfig& config,
                              const sim::SchemeSpec& scheme) {
  SCOPED_TRACE(scheme.label());
  const int mb_cols = config.width / 16;
  const int mb_rows = config.height / 16;
  const Backend original = codec::kernels::active_backend();

  std::vector<EncodeRun> runs;
  bool penalized = false;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    std::unique_ptr<codec::RefreshPolicy> policy =
        sim::make_policy(scheme, mb_cols, mb_rows);
    codec::Encoder encoder(config, policy.get());
    EncodeRun run;
    for (int i = 0; i < frames; ++i) {
      if (i > 0) penalized |= penalty_live(*policy, mb_cols, mb_rows);
      codec::EncodedFrame frame = encoder.encode_frame(seq.frame_at(i));
      run.bytes.insert(run.bytes.end(), frame.bytes.begin(),
                       frame.bytes.end());
    }
    run.ops = encoder.ops();
    runs.push_back(std::move(run));
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  ASSERT_GT(runs[0].ops.sad_early_exits, 0u);
  EXPECT_EQ(penalized, scheme.kind == sim::SchemeKind::kPbpair);
  expect_runs_identical(runs);
}

// Strongest equivalence check: a short full-encoder run must produce the
// same bitstream and the same operation counters (SAD calls and early
// exits included) on every backend, with and without PBPAIR's ME penalty.
TEST(Kernels, EncoderBitstreamIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  codec::EncoderConfig config;
  config.qp = 10;
  config.search.strategy = codec::SearchStrategy::kFullSearch;
  config.search.range = 7;
  for (const sim::SchemeSpec& scheme : digest_schemes()) {
    expect_encodes_identical(seq, 4, config, scheme);
  }
}

// Same digest contract through the other search shape: diamond descent
// (batched neighbor sets) plus half-pel refinement (interpolating SAD
// kernel).
TEST(Kernels, EncoderDigestIdenticalAcrossBackendsDiamondHalfpel) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  codec::EncoderConfig config;
  config.qp = 8;
  config.search.strategy = codec::SearchStrategy::kDiamondSearch;
  config.search.range = 15;
  config.search.half_pel = true;
  for (const sim::SchemeSpec& scheme : digest_schemes()) {
    expect_encodes_identical(seq, 5, config, scheme);
  }
}

// A 64x48 frame pair (4x3 MBs, so most MBs sit on an edge or a corner).
struct SearchFrames {
  const char* name;
  video::Plane cur{64, 48};
  video::Plane ref{64, 48};
};

// Content aimed at the batched replay's edge cases.
std::vector<SearchFrames> adversarial_frames() {
  std::vector<SearchFrames> frames(4);
  common::Pcg32 rng(90);
  auto noise = [&rng] {
    return static_cast<std::uint8_t>(rng.next_below(256));
  };
  // Noise, and the same noise moved by (3, 2) plus a little more noise:
  // the search improves a few times, then mostly exits early.
  frames[0].name = "shifted noise";
  for (std::uint8_t& p : frames[0].cur.data()) p = noise();
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      const int jitter = rng.next_in_range(-8, 8);
      const int v = frames[0].cur.at_clamped(x - 3, y - 2) + jitter;
      frames[0].ref.set(x, y, common::clamp_pixel(v));
    }
  }
  // A flat reference under blocks whose lower eight rows match it: every
  // candidate scores the same running sums, which stop growing after row 8,
  // so with no zero-vector bias each one ties the best exactly, both in
  // full and at its early-exit row.
  frames[1].name = "exact ties";
  frames[1].ref.fill(128);
  frames[1].cur.fill(128);
  for (int y = 0; y < 48; ++y) {
    if (y % 16 >= 8) continue;
    for (int x = 0; x < 64; ++x) frames[1].cur.set(x, y, noise());
  }
  // All 0 against all 255: every SAD is 65280, so a penalized zero vector
  // puts the first cutoffs above 65535.
  frames[2].name = "black on white";
  frames[2].ref.fill(255);
  // Brighter down and to the right against a white block: the SAD falls
  // along raster order, so candidates improve several times per batch.
  frames[3].name = "raster gradient";
  frames[3].cur.fill(255);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      frames[3].ref.set(x, y, static_cast<std::uint8_t>(4 * y + x / 4));
    }
  }
  return frames;
}

// Every odd column is out before any SAD work (cutoff <= 0): the alternate
// lanes of a full-search batch.
std::int64_t odd_columns_out(int, int, codec::MotionVector mv) {
  return (codec::halfpel_floor(mv.x) & 1) != 0 ? std::int64_t{1} << 20 : 0;
}

// A heavy zero vector: the first cutoffs exceed the 16-bit row table.
std::int64_t heavy_zero_vector(int, int, codec::MotionVector mv) {
  return mv.x == 0 && mv.y == 0 ? 5000 : 0;
}

std::int64_t vector_length(int mb_x, int, codec::MotionVector mv) {
  return (3 + mb_x) * (std::abs(mv.x) + std::abs(mv.y));
}

struct NamedPenalty {
  const char* name;
  codec::MePenaltyFn fn;
};

std::vector<NamedPenalty> adversarial_penalties() {
  std::vector<NamedPenalty> penalties;
  penalties.push_back({"no penalty", nullptr});
  penalties.push_back({"odd columns out", odd_columns_out});
  penalties.push_back({"heavy zero vector", heavy_zero_vector});
  penalties.push_back({"vector length", vector_length});
  return penalties;
}

std::vector<codec::MotionSearchConfig> adversarial_configs() {
  std::vector<codec::MotionSearchConfig> configs;
  for (std::int64_t bias : {0, 100}) {
    // Ranges 1..7 at corners and edges leave partial batches of 1..7.
    for (int range = 1; range <= 7; ++range) {
      codec::MotionSearchConfig full;
      full.strategy = codec::SearchStrategy::kFullSearch;
      full.range = range;
      full.half_pel = false;
      full.zero_mv_bias = bias;
      configs.push_back(full);
    }
    for (bool half_pel : {false, true}) {
      codec::MotionSearchConfig diamond;
      diamond.strategy = codec::SearchStrategy::kDiamondSearch;
      diamond.range = 15;
      diamond.half_pel = half_pel;
      diamond.zero_mv_bias = bias;
      configs.push_back(diamond);
    }
  }
  return configs;
}

std::string describe(const char* frames, const char* penalty,
                     const codec::MotionSearchConfig& config, int mb) {
  const bool full = config.strategy == codec::SearchStrategy::kFullSearch;
  std::string s = std::string(frames) + ", " + penalty;
  s += full ? ", full range " : ", diamond range ";
  s += std::to_string(config.range);
  if (config.half_pel) s += " half-pel";
  s += " bias " + std::to_string(config.zero_mv_bias);
  s += ", mb " + std::to_string(mb);
  return s;
}

// One search's outcome: the result fields and its operation counters.
struct SearchOutcome {
  std::string where;
  codec::MotionResult result;
  energy::OpCounters ops;
};

// Every adversarial search on the active backend, in a fixed order.
std::vector<SearchOutcome> run_adversarial_searches() {
  std::vector<SearchOutcome> run;
  for (const SearchFrames& f : adversarial_frames()) {
    for (const NamedPenalty& penalty : adversarial_penalties()) {
      for (const codec::MotionSearchConfig& config : adversarial_configs()) {
        for (int mb = 0; mb < 12; ++mb) {
          SearchOutcome out;
          out.where = describe(f.name, penalty.name, config, mb);
          out.result = codec::search_motion(f.cur, f.ref, mb % 4, mb / 4,
                                            config, penalty.fn, out.ops);
          run.push_back(std::move(out));
        }
      }
    }
  }
  return run;
}

// search_motion on every backend against the scalar reference, on content
// and penalties built to reach the batched replay's edge cases: lanes the
// penalty disqualifies, exact ties (strict `<` keeps the first best),
// cutoffs past 65535, several improvements inside one batch, and partial
// batches of 1..7 lanes.
TEST(Kernels, SearchMotionIdenticalAcrossBackendsAdversarial) {
  const Backend original = codec::kernels::active_backend();
  std::vector<std::vector<SearchOutcome>> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    runs.push_back(run_adversarial_searches());
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t b = 1; b < runs.size(); ++b) {
    ASSERT_EQ(runs[0].size(), runs[b].size());
    for (std::size_t k = 0; k < runs[0].size(); ++k) {
      const SearchOutcome& want = runs[0][k];
      const SearchOutcome& got = runs[b][k];
      SCOPED_TRACE(want.where + ", backend index " + std::to_string(b));
      ASSERT_EQ(want.result.mv.x, got.result.mv.x);
      ASSERT_EQ(want.result.mv.y, got.result.mv.y);
      ASSERT_EQ(want.result.sad, got.result.sad);
      ASSERT_EQ(want.result.sad_zero, got.result.sad_zero);
      ASSERT_EQ(want.result.cost, got.result.cost);
      ASSERT_EQ(want.result.candidates, got.result.candidates);
      ASSERT_EQ(0, std::memcmp(&want.ops, &got.ops,
                               sizeof(energy::OpCounters)));
    }
  }
}

}  // namespace
}  // namespace pbpair
