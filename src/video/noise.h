// Integer value-noise for procedural video content.
//
// The synthetic sequence generators need spatially-correlated texture with
// controllable detail so that the three workload classes (akiyo-like /
// foreman-like / garden-like) expose the same motion-activity ordering the
// paper's clips do. All arithmetic is integer: a hashed lattice of 8-bit
// values with bilinear interpolation, summed over octaves.
#pragma once

#include <cstdint>

namespace pbpair::video {

/// Deterministic 2-D value noise field. Same (seed, x, y) always yields the
/// same sample, on any platform.
class ValueNoise {
 public:
  explicit ValueNoise(std::uint64_t seed) : seed_(seed) {}

  /// Noise sample in [0, 255] at integer coordinates with the given lattice
  /// cell size (larger cell => smoother noise). cell must be >= 1.
  int sample(int x, int y, int cell) const;

  /// Multi-octave sample in [0, 255]: octave o uses cell >> o, weight >> o.
  /// octaves in [1, 6].
  int fractal(int x, int y, int base_cell, int octaves) const;

  /// Block fill: for a w x h grid, out[r * w + i] =
  /// fractal(x0 + i * step, y0 + r * step, base_cell, octaves), for the same
  /// bytes at a fraction of the cost. Per octave, each output column's
  /// lattice column and x weight are found once per block, each lattice
  /// point is hashed once (two lattice rows roll down the block), and each
  /// pixel row mixes those rows vertically once per lattice column. The
  /// horizontal mix of the two mixed values is the same integer sum as
  /// sample()'s, reassociated, and it is at most 255 * cell^2. Dividing it by
  /// cell^2 is a multiply by ceil(2^40 / cell^2) and a shift by 40, exact for
  /// every numerator below 2^24 and divisor up to 2^16, so base_cell must be
  /// at most 256. step >= 1; out holds w * h bytes.
  void fractal_block(int x0, int y0, int step, int w, int h, int base_cell,
                     int octaves, std::uint8_t* out) const;

 private:
  /// Hash of one lattice point to [0, 255].
  int lattice(int ix, int iy) const;

  std::uint64_t seed_;
};

}  // namespace pbpair::video
