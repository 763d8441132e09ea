#include "codec/motion_search.h"

#include <cstring>

#include "codec/kernels/kernels.h"
#include "codec/mc.h"
#include "codec/sad.h"
#include "common/check.h"
#include "common/math_util.h"

namespace pbpair::codec {
namespace {

struct SearchContext {
  const video::Plane& cur;
  const video::Plane& ref;
  int px;  // MB top-left in pixels
  int py;
  // Valid FULL-PEL vector bounds, in pixels.
  int min_dx, max_dx, min_dy, max_dy;
  const MePenaltyFn* penalty;
  energy::OpCounters* ops;

  bool in_bounds_pixels(int dx, int dy) const {
    return dx >= min_dx && dx <= max_dx && dy >= min_dy && dy <= max_dy;
  }

  std::int64_t penalty_of(MotionVector mv, int mb_x, int mb_y) const {
    if (penalty != nullptr && *penalty) return (*penalty)(mb_x, mb_y, mv);
    return 0;
  }

  /// Evaluates one FULL-PEL candidate (dx, dy in pixels); returns its cost.
  /// Sequential path, used when the active backend has no genuine batched
  /// SAD kernel (bit-identical to the batched scorer either way).
  std::int64_t evaluate(int dx, int dy, std::int64_t best_cost,
                        std::int64_t* out_sad, int mb_x, int mb_y) const {
    std::int64_t pen = penalty_of(MotionVector::from_pixels(dx, dy), mb_x, mb_y);
    // Early-out cutoff: the SAD alone only needs to reach best_cost - pen.
    std::int64_t cutoff = best_cost - pen;
    if (cutoff <= 0) {
      // Penalty already disqualifies the candidate; spend no SAD work.
      *out_sad = 0;
      return best_cost;  // "not better" sentinel
    }
    std::int64_t sad = sad_16x16_cutoff(cur, px, py, ref, px + dx, py + dy,
                                        cutoff, *ops);
    *out_sad = sad;
    return sad + pen;
  }
};

// Batching engages only when the table brings a real vector kernel. The
// scalar backend keeps the sequential early-exit loop because that loop is
// the reference the batched replay is checked against: the backend digest
// tests compare every SIMD backend's bitstream and counters with it.
bool use_batched_sads() {
  return kernels::active().origin_of(kernels::KernelId::kSad16x16X4) !=
         kernels::Backend::kScalar;
}

// One u16 lane per staged candidate of a batch (an x4 batch uses the low
// four). GCC/Clang vector extensions lower it to SSE2 on x86-64 and to NEON
// on aarch64, so the replay needs no per-backend body.
typedef std::uint16_t U16x8 __attribute__((vector_size(16)));

// Scores full-pel candidates through the batched SAD kernels while
// reproducing the sequential scalar search bit for bit.
//
// Candidates are staged in scalar evaluation order and scored eight (or
// four) at a time with the multi-candidate kernels, which return every
// candidate's running SAD after each block row. The staged batch is then
// REPLAYED against the evolving best cost, all lanes at once:
//
//   - cutoff <= 0: the penalty alone disqualifies the candidate; the scalar
//     path spent no SAD work and touched no counters, so neither does the
//     replay (the batch's wasted rows are wall-clock only — the energy
//     model meters algorithmic work, not the machine's).
//   - otherwise the scalar cutoff loop stops after the first row whose
//     running sum reaches the cutoff and returns that sum, or completes all
//     16 rows and returns the total. Running sums only grow, so with
//     `below` = the number of rows under the cutoff, the loop reads
//     min(below, 15) + 1 rows and returns rows[min(below, 15)]; and the
//     candidate beats the best exactly when below == 16.
//
// One 16-row compare over the lanes therefore settles every lane up to and
// including the first one that improves. That lane becomes the best and
// the replay goes on from the next lane against the new cost, so a batch
// costs one pass plus one per improvement, and its metering is one call.
//
// Each staged candidate's penalty is taken once, in staging order, before
// the batch's best-cost updates: sound because a penalty is a pure
// function of (mb_x, mb_y, mv) (MePenaltyFn). Batches may span row
// boundaries of a full search; only the staging order matters.
class BatchScorer {
 public:
  BatchScorer(const SearchContext& ctx, int mb_x, int mb_y, MotionResult& best)
      : ctx_(ctx), mb_x_(mb_x), mb_y_(mb_y), best_(best) {}

  /// Stages one in-bounds full-pel candidate (scalar evaluation order).
  void add(int dx, int dy) {
    dx_[n_] = dx;
    dy_[n_] = dy;
    refs_[n_] = ctx_.ref.row(ctx_.py + dy) + ctx_.px + dx;
    if (++n_ == 8) replay();
  }

  /// Scores any staged remainder; returns whether any candidate staged
  /// since the last finish() improved the best cost.
  bool finish() {
    replay();
    const bool improved = improved_;
    improved_ = false;
    return improved;
  }

 private:
  void replay() {
    if (n_ == 0) return;
    const kernels::KernelTable& kt = kernels::active();
    const std::uint8_t* cur = ctx_.cur.row(ctx_.py) + ctx_.px;
    const int cur_stride = ctx_.cur.width();
    const int ref_stride = ctx_.ref.width();
    // Unused lanes of a partial batch score a block that is already staged,
    // so the kernel reads no memory outside the search window.
    const int lanes = n_ <= 4 ? 4 : 8;
    for (int i = n_; i < lanes; ++i) refs_[i] = refs_[0];
    if (lanes == 4) {
      std::uint16_t rows[16][4];
      kt.sad_16x16_x4(cur, cur_stride, refs_, ref_stride, rows);
      replay_rows(rows);
    } else {
      std::uint16_t rows[16][8];
      kt.sad_16x16_x8(cur, cur_stride, refs_, ref_stride, rows);
      replay_rows(rows);
    }
    n_ = 0;
  }

  template <int N>
  void replay_rows(const std::uint16_t (&rows)[16][N]) {
    std::int64_t pen[8] = {};
    for (int i = 0; i < n_; ++i) {
      pen[i] = ctx_.penalty_of(MotionVector::from_pixels(dx_[i], dy_[i]),
                               mb_x_, mb_y_);
    }
    best_.candidates += static_cast<std::uint64_t>(n_);
    std::uint64_t rows_read = 0, calls = 0, early = 0;
    for (int first = 0; first < n_;) {
      // Cutoffs against the current best. 0 marks a disqualified lane or
      // one outside this pass; a cutoff past 0xFFFF clamps to it, which no
      // running SAD (at most 65 280) reaches either way.
      std::uint16_t cut[8] = {};
      for (int i = first; i < n_; ++i) {
        cut[i] = static_cast<std::uint16_t>(
            common::clamp<std::int64_t>(best_.cost - pen[i], 0, 0xFFFF));
      }
      U16x8 cut_v = {};
      std::memcpy(&cut_v, cut, sizeof(cut_v));
      // Rows under each lane's cutoff: all 16, less one for every row at
      // or past it (a true lane compare is all ones, i.e. -1).
      U16x8 below_v = {16, 16, 16, 16, 16, 16, 16, 16};
      for (int y = 0; y < 16; ++y) {
        U16x8 r = {};
        std::memcpy(&r, rows[y], sizeof(rows[y]));
        below_v += (U16x8)(r >= cut_v);
      }
      std::uint16_t below[8] = {};
      std::memcpy(below, &below_v, sizeof(below));

      int last = first;  // the pass ends at the first improving lane
      while (last < n_ - 1 && below[last] != 16) ++last;
      for (int i = first; i <= last; ++i) {
        if (cut[i] == 0) continue;
        ++calls;
        if (below[i] < 15) {
          rows_read += below[i] + 1u;
          ++early;
        } else {
          rows_read += 16;
        }
      }
      if (below[last] == 16) {
        best_.sad = rows[15][last];
        best_.cost = best_.sad + pen[last];
        best_.mv = MotionVector::from_pixels(dx_[last], dy_[last]);
        improved_ = true;
      }
      first = last + 1;
    }
    meter_sad_batch(rows_read, calls, early, *ctx_.ops);
  }

  const SearchContext& ctx_;
  const int mb_x_;
  const int mb_y_;
  MotionResult& best_;
  int n_ = 0;
  bool improved_ = false;
  int dx_[8];
  int dy_[8];
  const std::uint8_t* refs_[8];
};

void full_search(const SearchContext& ctx, int mb_x, int mb_y,
                 MotionResult& best) {
  if (!use_batched_sads()) {
    for (int dy = ctx.min_dy; dy <= ctx.max_dy; ++dy) {
      for (int dx = ctx.min_dx; dx <= ctx.max_dx; ++dx) {
        if (dx == 0 && dy == 0) continue;  // seeded before dispatch
        std::int64_t sad = 0;
        std::int64_t cost = ctx.evaluate(dx, dy, best.cost, &sad, mb_x, mb_y);
        ++best.candidates;
        if (cost < best.cost) {
          best.cost = cost;
          best.sad = sad;
          best.mv = MotionVector::from_pixels(dx, dy);
        }
      }
    }
    return;
  }
  BatchScorer batch(ctx, mb_x, mb_y, best);
  for (int dy = ctx.min_dy; dy <= ctx.max_dy; ++dy) {
    for (int dx = ctx.min_dx; dx <= ctx.max_dx; ++dx) {
      if (dx == 0 && dy == 0) continue;  // seeded before dispatch
      batch.add(dx, dy);
    }
  }
  batch.finish();
}

void diamond_search(const SearchContext& ctx, int mb_x, int mb_y,
                    MotionResult& best) {
  // Large diamond search pattern descent, then small diamond refinement,
  // all in full-pel steps. The scalar loop computed the diamond center
  // before trying its 8 neighbors, so each iteration's candidate set is
  // fixed up front — exactly the shape the batched scorer needs.
  struct Step {
    int dx, dy;
  };
  static constexpr Step kLarge[] = {{0, -2}, {-1, -1}, {1, -1}, {-2, 0},
                                    {2, 0},  {-1, 1},  {1, 1},  {0, 2}};
  static constexpr Step kSmall[] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};

  if (!use_batched_sads()) {
    auto try_pixels = [&](int dx, int dy) {
      if (!ctx.in_bounds_pixels(dx, dy)) return false;
      std::int64_t sad = 0;
      std::int64_t cost = ctx.evaluate(dx, dy, best.cost, &sad, mb_x, mb_y);
      ++best.candidates;
      if (cost < best.cost) {
        best.cost = cost;
        best.sad = sad;
        best.mv = MotionVector::from_pixels(dx, dy);
        return true;
      }
      return false;
    };
    bool improved = true;
    int iterations = 0;
    while (improved && iterations < 64) {
      improved = false;
      int cx = halfpel_floor(best.mv.x);
      int cy = halfpel_floor(best.mv.y);
      for (Step step : kLarge) improved |= try_pixels(cx + step.dx, cy + step.dy);
      ++iterations;
    }
    int cx = halfpel_floor(best.mv.x);
    int cy = halfpel_floor(best.mv.y);
    for (Step step : kSmall) try_pixels(cx + step.dx, cy + step.dy);
    return;
  }

  BatchScorer batch(ctx, mb_x, mb_y, best);
  bool improved = true;
  int iterations = 0;
  while (improved && iterations < 64) {
    int cx = halfpel_floor(best.mv.x);
    int cy = halfpel_floor(best.mv.y);
    for (Step step : kLarge) {
      // Out-of-bounds neighbors are dropped before the candidate counter,
      // exactly like the scalar try_pixels guard.
      if (ctx.in_bounds_pixels(cx + step.dx, cy + step.dy)) {
        batch.add(cx + step.dx, cy + step.dy);
      }
    }
    improved = batch.finish();
    ++iterations;
  }
  int cx = halfpel_floor(best.mv.x);
  int cy = halfpel_floor(best.mv.y);
  for (Step step : kSmall) {
    if (ctx.in_bounds_pixels(cx + step.dx, cy + step.dy)) {
      batch.add(cx + step.dx, cy + step.dy);
    }
  }
  batch.finish();
}

void halfpel_refine(const SearchContext& ctx, int mb_x, int mb_y,
                    MotionResult& best) {
  // The 8 half-pel neighbors of the full-pel winner (TMN refinement).
  const MotionVector center = best.mv;
  for (int dy2 = -1; dy2 <= 1; ++dy2) {
    for (int dx2 = -1; dx2 <= 1; ++dx2) {
      if (dx2 == 0 && dy2 == 0) continue;
      MotionVector mv{center.x + dx2, center.y + dy2};
      // Keep the *floor* position inside the full-pel bounds so the
      // interpolation only ever clamps on its +1 edge reads.
      if (!ctx.in_bounds_pixels(halfpel_floor(mv.x), halfpel_floor(mv.y))) {
        continue;
      }
      std::int64_t pen = ctx.penalty_of(mv, mb_x, mb_y);
      std::int64_t cutoff = best.cost - pen;
      if (cutoff <= 0) {
        ++best.candidates;
        continue;
      }
      std::int64_t sad = sad_16x16_halfpel(ctx.cur, ctx.px, ctx.py, ctx.ref,
                                           ctx.px * 2 + mv.x,
                                           ctx.py * 2 + mv.y, cutoff,
                                           *ctx.ops);
      ++best.candidates;
      if (sad + pen < best.cost) {
        best.cost = sad + pen;
        best.sad = sad;
        best.mv = mv;
      }
    }
  }
}

}  // namespace

MotionResult search_motion(const video::Plane& cur, const video::Plane& ref,
                           int mb_x, int mb_y, const MotionSearchConfig& config,
                           const MePenaltyFn& penalty,
                           energy::OpCounters& ops) {
  PB_CHECK(cur.same_size(ref));
  PB_CHECK(config.range >= 0 && config.range <= 31);
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  PB_CHECK(px + kMbSize <= cur.width() && py + kMbSize <= cur.height());

  SearchContext ctx{
      cur,
      ref,
      px,
      py,
      common::clamp(-config.range, -px, 0),
      common::clamp(config.range, 0, ref.width() - kMbSize - px),
      common::clamp(-config.range, -py, 0),
      common::clamp(config.range, 0, ref.height() - kMbSize - py),
      &penalty,
      &ops,
  };

  ops.me_invocations += 1;

  // Seed with the exact zero-vector candidate: both strategies start here,
  // and its SAD doubles as the co-located similarity input (motion.h).
  MotionResult best;
  best.sad_zero = sad_16x16(cur, px, py, ref, px, py, ops);
  best.mv = MotionVector{0, 0};
  best.sad = best.sad_zero;
  best.cost = best.sad_zero - config.zero_mv_bias;
  if (best.cost < 0) best.cost = 0;
  if (penalty) best.cost += penalty(mb_x, mb_y, MotionVector{0, 0});
  best.candidates = 1;

  switch (config.strategy) {
    case SearchStrategy::kFullSearch:
      full_search(ctx, mb_x, mb_y, best);
      break;
    case SearchStrategy::kDiamondSearch:
      diamond_search(ctx, mb_x, mb_y, best);
      break;
  }
  if (config.half_pel) {
    halfpel_refine(ctx, mb_x, mb_y, best);
  }
  return best;
}

}  // namespace pbpair::codec
