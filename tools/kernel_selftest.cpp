// kernel_selftest — dependency-free cross-backend equivalence check.
//
// Verifies that every supported backend reproduces the scalar reference
// bit-for-bit on every kernel in the dispatch table: SAD values, early-exit
// row counts, batched-SAD row tables, half-pel phases, DCT/IDCT coefficients,
// quant levels and nonzero counts, MC predictions, and residual blocks.
// It then runs codec::search_motion on every backend against the scalar
// backend's sequential search (full search +/-7, diamond +/-15 with half-pel,
// each with and without a penalty) and compares the results and the
// OpCounters, so the batched lane replay and its vector lowering (NEON on
// aarch64) are checked wherever this binary runs. Last, it digests the
// first 30 frames of each synthetic clip against known answers, since the
// clips must be the same bytes on every architecture.
//
// This is deliberately NOT a gtest binary: it is the smoke test the CI
// aarch64 cross-compile job runs under qemu-user, where only the standard
// library exists for the target. It registers with ctest in every build
// mode, so the same binary guards native runs too. Exit 0 = all backends
// bit-identical; exit 1 = mismatch (details on stdout).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "codec/kernels/kernels.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "energy/op_counters.h"
#include "video/frame.h"
#include "video/sequence.h"

using namespace pbpair;
using codec::kernels::Backend;
using codec::kernels::KernelTable;

namespace {

constexpr int kStride = 61;  // odd: exercises every load alignment
constexpr int kRows = 96;

struct Field {
  std::vector<std::uint8_t> data;
  explicit Field(std::uint64_t seed) : data(kStride * kRows) {
    common::Pcg32 rng(seed);
    for (std::uint8_t& p : data) {
      p = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const std::uint8_t* at(int x, int y) const {
    return data.data() + static_cast<std::size_t>(y) * kStride + x;
  }
};

int g_failures = 0;

void fail(const char* backend, const char* kernel, int trial) {
  std::printf("MISMATCH: %s disagrees with scalar on %s (trial %d)\n",
              backend, kernel, trial);
  ++g_failures;
}

// What the scalar cutoff loop returns for `cutoff`, read off a batched
// kernel's per-row table: the first row whose running SAD reaches the
// cutoff, or the full SAD after row 16.
template <int N>
bool exit_matches(const std::uint16_t (&rows)[16][N], int lane,
                  std::int64_t cutoff, std::int64_t want_sad, int want_rows) {
  int y = 0;
  while (y < 15 && rows[y][lane] < cutoff) ++y;
  return rows[y][lane] == want_sad && y + 1 == want_rows;
}

// The batched kernels' per-row contract: every table entry equals the
// scalar kernel's, each lane yields sad_16x16_cutoff_scalar's (sad, rows)
// for cutoffs from an instant exit to none at all, and the last row is the
// full SAD.
void check_batched(const KernelTable& scalar, const KernelTable& simd,
                   const std::uint8_t* cur, int cur_stride,
                   const std::uint8_t* const refs[8], int ref_stride,
                   int trial) {
  std::uint16_t want4[16][4], got4[16][4], want8[16][8], got8[16][8];
  scalar.sad_16x16_x4(cur, cur_stride, refs, ref_stride, want4);
  simd.sad_16x16_x4(cur, cur_stride, refs, ref_stride, got4);
  scalar.sad_16x16_x8(cur, cur_stride, refs, ref_stride, want8);
  simd.sad_16x16_x8(cur, cur_stride, refs, ref_stride, got8);
  if (std::memcmp(want4, got4, sizeof(got4)) != 0) {
    fail(simd.name, "sad_16x16_x4", trial);
  }
  if (std::memcmp(want8, got8, sizeof(got8)) != 0) {
    fail(simd.name, "sad_16x16_x8", trial);
  }
  static constexpr std::int64_t kCutoffs[] = {-3, 0, 1, 500, 2000, 4000,
                                              40000, 65280, 1'000'000};
  for (int i = 0; i < 8; ++i) {
    for (std::int64_t cutoff : kCutoffs) {
      int rows = -1;
      const std::int64_t sad = codec::kernels::sad_16x16_cutoff_scalar(
          cur, cur_stride, refs[i], ref_stride, cutoff, &rows);
      if (!exit_matches(got8, i, cutoff, sad, rows)) {
        fail(simd.name, "sad_16x16_x8 row table", trial);
      }
      if (i < 4 && !exit_matches(got4, i, cutoff, sad, rows)) {
        fail(simd.name, "sad_16x16_x4 row table", trial);
      }
    }
    const std::int64_t full =
        scalar.sad_16x16(cur, cur_stride, refs[i], ref_stride);
    if (got8[15][i] != full || (i < 4 && got4[15][i] != full)) {
      fail(simd.name, "batched full SAD", trial);
    }
  }
}

void check_backend(const KernelTable& scalar, const KernelTable& simd) {
  const Field cur(1), ref(2);
  common::Pcg32 rng(3);

  // All 0 against all 255 scores the largest SAD, 16 * 16 * 255 = 65280,
  // the top of the 16-bit row table.
  const std::vector<std::uint8_t> black(16 * 16, 0), white(16 * 16, 255);
  const std::uint8_t* whites[8];
  for (const std::uint8_t*& r : whites) r = white.data();
  check_batched(scalar, simd, black.data(), 16, whites, 16, -1);

  for (int trial = 0; trial < 300; ++trial) {
    const int cx = rng.next_in_range(0, kStride - 17);
    const int cy = rng.next_in_range(0, kRows - 17);
    const int rx = rng.next_in_range(0, kStride - 17);
    const int ry = rng.next_in_range(0, kRows - 17);
    std::int64_t cutoff;
    switch (trial % 4) {
      case 0: cutoff = rng.next_in_range(-5, 5); break;
      case 1: cutoff = rng.next_in_range(1, 4000); break;
      case 2: cutoff = rng.next_in_range(4000, 40000); break;
      default: cutoff = 1'000'000; break;
    }

    if (scalar.sad_16x16(cur.at(cx, cy), kStride, ref.at(rx, ry), kStride) !=
        simd.sad_16x16(cur.at(cx, cy), kStride, ref.at(rx, ry), kStride)) {
      fail(simd.name, "sad_16x16", trial);
    }
    if (scalar.sad_self_16x16(cur.at(cx, cy), kStride) !=
        simd.sad_self_16x16(cur.at(cx, cy), kStride)) {
      fail(simd.name, "sad_self_16x16", trial);
    }
    const int hx = trial & 1;
    const int hy = (trial >> 1) & 1;
    int want_rows = -1, got_rows = -1;
    const std::int64_t want = scalar.sad_16x16_hpel_cutoff(
        cur.at(cx, cy), kStride, ref.at(rx, ry), kStride, hx, hy, cutoff,
        &want_rows);
    const std::int64_t got = simd.sad_16x16_hpel_cutoff(
        cur.at(cx, cy), kStride, ref.at(rx, ry), kStride, hx, hy, cutoff,
        &got_rows);
    if (want != got || want_rows != got_rows) {
      fail(simd.name, "sad_16x16_hpel_cutoff", trial);
    }

    const std::uint8_t* refs[8];
    for (int i = 0; i < 8; ++i) {
      refs[i] = ref.at((rx + 3 * i) % (kStride - 16),
                       (ry + 5 * i) % (kRows - 16));
    }
    check_batched(scalar, simd, cur.at(cx, cy), kStride, refs, kStride,
                  trial);

    const int w = trial % 2 == 0 ? 16 : 8;
    std::uint8_t pred_want[16 * 16], pred_got[16 * 16];
    scalar.mc_predict(ref.at(rx, ry), kStride, pred_want, w, w, hx, hy);
    simd.mc_predict(ref.at(rx, ry), kStride, pred_got, w, w, hx, hy);
    if (std::memcmp(pred_want, pred_got, static_cast<std::size_t>(w) * w) !=
        0) {
      fail(simd.name, "mc_predict", trial);
    }

    std::int16_t res_want[64], res_got[64];
    scalar.sub_pred_8x8(cur.at(cx, cy), kStride, ref.at(rx, ry), kStride,
                        res_want);
    simd.sub_pred_8x8(cur.at(cx, cy), kStride, ref.at(rx, ry), kStride,
                      res_got);
    if (std::memcmp(res_want, res_got, sizeof(res_want)) != 0) {
      fail(simd.name, "sub_pred_8x8", trial);
    }
    std::int16_t residual[64];
    for (std::int16_t& v : residual) {
      v = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
    }
    std::uint8_t px_want[64], px_got[64];
    scalar.add_pred_8x8(px_want, 8, ref.at(rx, ry), kStride, residual);
    simd.add_pred_8x8(px_got, 8, ref.at(rx, ry), kStride, residual);
    if (std::memcmp(px_want, px_got, sizeof(px_want)) != 0) {
      fail(simd.name, "add_pred_8x8", trial);
    }

    std::int16_t block[64], dct_want[64], dct_got[64];
    const int lo = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? -255 : -2048);
    const int hi = trial % 3 == 0 ? 255 : (trial % 3 == 1 ? 255 : 2047);
    for (std::int16_t& v : block) {
      v = static_cast<std::int16_t>(rng.next_in_range(lo, hi));
    }
    scalar.forward_dct_8x8(block, dct_want);
    simd.forward_dct_8x8(block, dct_got);
    if (std::memcmp(dct_want, dct_got, sizeof(dct_want)) != 0) {
      fail(simd.name, "forward_dct_8x8", trial);
    }
    scalar.inverse_dct_8x8(block, dct_want);
    simd.inverse_dct_8x8(block, dct_got);
    if (std::memcmp(dct_want, dct_got, sizeof(dct_want)) != 0) {
      fail(simd.name, "inverse_dct_8x8", trial);
    }

    const int qp = codec::kMinQp +
                   trial % (codec::kMaxQp - codec::kMinQp + 1);
    const bool intra = (trial & 1) != 0;
    const int first = intra ? 1 : 0;
    std::int16_t q_want[64], q_got[64];
    std::memcpy(q_want, block, sizeof(block));
    std::memcpy(q_got, block, sizeof(block));
    const int nz_want = scalar.quantize_ac(q_want, first, qp, intra);
    const int nz_got = simd.quantize_ac(q_got, first, qp, intra);
    if (nz_want != nz_got ||
        std::memcmp(q_want, q_got, sizeof(q_want)) != 0) {
      fail(simd.name, "quantize_ac", trial);
    }
    scalar.dequantize_ac(q_want, first, qp);
    simd.dequantize_ac(q_got, first, qp);
    if (std::memcmp(q_want, q_got, sizeof(q_want)) != 0) {
      fail(simd.name, "dequantize_ac", trial);
    }
  }
}

// One search_motion call's outcome.
struct Search {
  codec::MotionResult result;
  energy::OpCounters ops;
};

// Every search of the motion block on the active backend, in a fixed order.
// Two 64x48 frame pairs: noise the search can track (moved by (3, 2), plus
// a little noise), and a flat reference under blocks whose lower half
// matches it, where every candidate ties the best exactly. The penalty
// disqualifies every odd column before any SAD work and charges the rest
// by vector length.
std::vector<Search> run_searches(Backend backend) {
  codec::kernels::set_active(backend);
  common::Pcg32 rng(4);
  video::Plane cur(64, 48), ref(64, 48);
  video::Plane tie_cur(64, 48, 128), tie_ref(64, 48, 128);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      cur.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
      if (y % 16 < 8) {
        tie_cur.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
  }
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      const int jitter = rng.next_in_range(-8, 8);
      ref.set(x, y, common::clamp_pixel(cur.at_clamped(x - 3, y - 2) + jitter));
    }
  }
  const codec::MePenaltyFn penalty = [](int, int, codec::MotionVector mv) {
    if ((codec::halfpel_floor(mv.x) & 1) != 0) return std::int64_t{1} << 20;
    return std::int64_t{4} * (std::abs(mv.x) + std::abs(mv.y));
  };
  const codec::MePenaltyFn none;

  codec::MotionSearchConfig full;
  full.strategy = codec::SearchStrategy::kFullSearch;
  full.range = 7;
  full.half_pel = false;
  codec::MotionSearchConfig diamond;
  diamond.strategy = codec::SearchStrategy::kDiamondSearch;
  diamond.range = 15;
  diamond.half_pel = true;

  std::vector<Search> searches;
  const video::Plane* pairs[2][2] = {{&cur, &ref}, {&tie_cur, &tie_ref}};
  for (const auto& pair : pairs) {
    for (codec::MotionSearchConfig config : {full, diamond}) {
      // Without the zero-vector bias the tie frames tie exactly.
      for (std::int64_t bias : {0, 100}) {
        config.zero_mv_bias = bias;
        for (const codec::MePenaltyFn* fn : {&none, &penalty}) {
          for (int mb = 0; mb < 12; ++mb) {
            Search s;
            s.result = codec::search_motion(*pair[0], *pair[1], mb % 4,
                                            mb / 4, config, *fn, s.ops);
            searches.push_back(s);
          }
        }
      }
    }
  }
  return searches;
}

void check_motion_search(const std::vector<Search>& want, Backend backend,
                         const char* name) {
  const std::vector<Search> got = run_searches(backend);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const codec::MotionResult& a = want[i].result;
    const codec::MotionResult& b = got[i].result;
    if (a.mv.x != b.mv.x || a.mv.y != b.mv.y || a.sad != b.sad ||
        a.sad_zero != b.sad_zero || a.cost != b.cost ||
        a.candidates != b.candidates) {
      fail(name, "search_motion result", static_cast<int>(i));
    }
    if (std::memcmp(&want[i].ops, &got[i].ops, sizeof(energy::OpCounters)) !=
        0) {
      fail(name, "search_motion OpCounters", static_cast<int>(i));
    }
  }
}

// FNV-1a 64 over each frame's Y, U and V bytes, frames 0..29 of the QCIF
// clip at seed 2005; tests/test_video.cpp pins the same three values.
void check_synthesis_known_answer() {
  struct KnownAnswer {
    video::SequenceKind kind;
    std::uint64_t digest;
  };
  const KnownAnswer answers[] = {
      {video::SequenceKind::kForemanLike, 0x7787830D76F2F2A0ULL},
      {video::SequenceKind::kAkiyoLike, 0x11FBBBB815A0DCD2ULL},
      {video::SequenceKind::kGardenLike, 0xD54A6105FEE91F71ULL},
  };
  const int before = g_failures;
  for (const KnownAnswer& answer : answers) {
    const video::SyntheticSequence seq =
        video::make_paper_sequence(answer.kind, 2005);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (int i = 0; i < 30; ++i) {
      const video::YuvFrame frame = seq.frame_at(i);
      for (const video::Plane* plane : {&frame.y(), &frame.u(), &frame.v()}) {
        for (std::uint8_t b : plane->data()) h = (h ^ b) * 0x100000001B3ULL;
      }
    }
    if (h != answer.digest) {
      std::printf("MISMATCH: %s synthesis digest %016llx, expected %016llx\n",
                  video::sequence_kind_name(answer.kind),
                  static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(answer.digest));
      ++g_failures;
    }
  }
  std::printf("synthesis known answer: %s\n",
              g_failures == before ? "ok" : "FAILED");
}

}  // namespace

int main() {
  const KernelTable& scalar = codec::kernels::scalar_table();
  const Backend original = codec::kernels::active_backend();
  const std::vector<Search> reference = run_searches(Backend::kScalar);
  for (Backend backend : codec::kernels::supported_backends()) {
    const KernelTable* table = codec::kernels::table_for(backend);
    if (table == nullptr) {
      std::printf("FAIL: supported backend %s has no table\n",
                  codec::kernels::backend_name(backend));
      return 1;
    }
    if (backend == Backend::kScalar) continue;
    const int before = g_failures;
    check_backend(scalar, *table);
    check_motion_search(reference, backend, table->name);
    std::printf("%-8s %s\n", table->name,
                g_failures == before ? "bit-identical to scalar" : "FAILED");
  }
  codec::kernels::set_active(original);
  if (codec::kernels::supported_backends().size() == 1) {
    std::printf("scalar backend only on this machine; dispatch sanity ok\n");
  }
  check_synthesis_known_answer();
  std::printf(g_failures == 0 ? "kernel_selftest: OK\n"
                              : "kernel_selftest: %d mismatches\n",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
