// Sum-of-absolute-differences primitives, metered for the energy model.
#pragma once

#include <cstdint>

#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

/// Meters `calls` 16x16 SADs that accumulated `rows` block rows between
/// them, `early` of which stopped short of row 16: 16 sad_pixel_ops per row,
/// plus `calls` and `early` in sad_calls and sad_early_exits. Every metered
/// SAD path — single, cutoff and the batched motion-search replay (once per
/// batch) — goes through here, so the counts cannot depend on which ran.
inline void meter_sad_batch(std::uint64_t rows, std::uint64_t calls,
                            std::uint64_t early, energy::OpCounters& ops) {
  ops.sad_pixel_ops += 16 * rows;
  ops.sad_calls += calls;
  ops.sad_early_exits += early;
}

/// Meters one 16x16 SAD that accumulated `rows` block rows (1..16).
inline void meter_sad_rows(int rows, energy::OpCounters& ops) {
  meter_sad_batch(static_cast<std::uint64_t>(rows), 1, rows < 16 ? 1 : 0, ops);
}

/// SAD between the 16x16 luma block of `cur` at (cx, cy) and the block of
/// `ref` at (rx, ry). Both blocks must be fully inside their planes.
/// Meters 256 sad_pixel_ops.
std::int64_t sad_16x16(const video::Plane& cur, int cx, int cy,
                       const video::Plane& ref, int rx, int ry,
                       energy::OpCounters& ops);

/// SAD with early termination: stops (returning a value >= `cutoff`) once
/// the partial sum exceeds `cutoff`. Meters only the pixels actually read.
/// Runs kernels::sad_16x16_cutoff_scalar on every backend; SIMD backends
/// reach the same exits through the batched row tables instead.
std::int64_t sad_16x16_cutoff(const video::Plane& cur, int cx, int cy,
                              const video::Plane& ref, int rx, int ry,
                              std::int64_t cutoff, energy::OpCounters& ops);

/// Deviation of the block from its own mean: SAD_self = sum |p - mean(p)|.
/// This is H.263 TMN's "A" value used in the intra/inter decision, and the
/// paper's SAD_self. Meters 256 sad_pixel_ops (plus the mean pass is folded
/// into the same cost).
std::int64_t sad_self_16x16(const video::Plane& cur, int cx, int cy,
                            energy::OpCounters& ops);

}  // namespace pbpair::codec
