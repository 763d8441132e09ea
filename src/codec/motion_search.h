// Block motion search with a pluggable candidate cost.
//
// The cost of candidate v is SAD(v) + penalty(v), where the penalty hook is
// how PBPAIR injects its probability-of-correctness term (§3.1.2 / Fig. 3):
// a candidate pointing into likely-damaged reference area gets penalized
// even if its SAD is the lowest. Baseline schemes use a zero penalty.
//
// The search runs in two stages, like the TMN reference encoder:
//  1. full-pel stage, either:
//     - kFullSearch: exhaustive over the +/-range pixel window (the
//       reference H.263 encoder's default; expensive, energy-hungry), or
//     - kDiamondSearch: large/small diamond descent (embedded-realistic);
//  2. optional half-pel refinement (config.half_pel): the 8 interpolated
//     neighbors of the full-pel winner.
// Vectors are in half-pel units (codec/motion.h). Full-pel candidates are
// restricted so the reference block stays inside the frame; half-pel
// interpolation edge-clamps (codec/mc.h).
#pragma once

#include <cstdint>
#include <functional>

#include "codec/motion.h"
#include "codec/sad.h"
#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

enum class SearchStrategy {
  kFullSearch,
  kDiamondSearch,
};

struct MotionSearchConfig {
  SearchStrategy strategy = SearchStrategy::kDiamondSearch;
  int range = 15;        // max |mv| component in PIXELS
  bool half_pel = true;  // H.263 half-pel refinement stage
  /// Cost advantage of the (0,0) candidate (TMN's value is 100): without
  /// it, half-pel interpolation's noise-smoothing makes tiny nonzero
  /// vectors beat the zero vector on static content, destroying skip mode.
  std::int64_t zero_mv_bias = 100;
};

/// Extra cost (same scale as SAD) for predicting from `mv`'s reference
/// region; receives the MB coordinates (in MB units) and the candidate in
/// half-pel units. It must be a pure function of its arguments: the
/// batched search takes the penalties of a whole batch of candidates
/// before it replays that batch's best-cost updates (exactly one call per
/// candidate either way), so a penalty that read the search's progress
/// would diverge from the sequential reference.
using MePenaltyFn =
    std::function<std::int64_t(int mb_x, int mb_y, MotionVector mv)>;

/// Searches for the best-cost vector for the MB at (mb_x, mb_y) (MB units)
/// of `cur` against reference `ref`. `penalty` may be null (zero penalty).
/// Meters SAD work and the search invocation into `ops`.
MotionResult search_motion(const video::Plane& cur, const video::Plane& ref,
                           int mb_x, int mb_y, const MotionSearchConfig& config,
                           const MePenaltyFn& penalty,
                           energy::OpCounters& ops);

}  // namespace pbpair::codec
