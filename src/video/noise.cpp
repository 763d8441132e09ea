#include "video/noise.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"

namespace pbpair::video {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Floor division by a positive divisor, rounding as sample() does.
int floor_div(int x, int d) { return x >= 0 ? x / d : -((-x + d - 1) / d); }

}  // namespace

int ValueNoise::lattice(int ix, int iy) const {
  std::uint64_t h = seed_;
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix))
                 << 32 |
                 static_cast<std::uint32_t>(iy)));
  return static_cast<int>(h & 0xFF);
}

int ValueNoise::sample(int x, int y, int cell) const {
  PB_DCHECK(cell >= 1);
  // Floor-divide into lattice cells (handle negatives correctly).
  int ix = x >= 0 ? x / cell : -((-x + cell - 1) / cell);
  int iy = y >= 0 ? y / cell : -((-y + cell - 1) / cell);
  int fx = x - ix * cell;  // in [0, cell)
  int fy = y - iy * cell;

  int v00 = lattice(ix, iy);
  int v10 = lattice(ix + 1, iy);
  int v01 = lattice(ix, iy + 1);
  int v11 = lattice(ix + 1, iy + 1);

  // Bilinear interpolation scaled by cell size; all integer.
  int top = v00 * (cell - fx) + v10 * fx;
  int bot = v01 * (cell - fx) + v11 * fx;
  int val = top * (cell - fy) + bot * fy;
  return val / (cell * cell);
}

int ValueNoise::fractal(int x, int y, int base_cell, int octaves) const {
  PB_CHECK(octaves >= 1 && octaves <= 6);
  int acc = 0;
  int weight_sum = 0;
  for (int o = 0; o < octaves; ++o) {
    int cell = base_cell >> o;
    if (cell < 1) break;
    int w = 1 << (octaves - 1 - o);
    acc += sample(x + o * 7919, y + o * 104729, cell) * w;
    weight_sum += w;
  }
  return weight_sum > 0 ? acc / weight_sum : 128;
}

void ValueNoise::fractal_block(int x0, int y0, int step, int w, int h,
                               int base_cell, int octaves,
                               std::uint8_t* out) const {
  PB_CHECK(octaves >= 1 && octaves <= 6);
  PB_CHECK(step >= 1 && w >= 0 && h >= 0);
  PB_CHECK(base_cell <= 256);  // cell^2 <= 2^16, as ExactDivisor needs
  if (w == 0 || h == 0) return;

  // One octave of the block, offset as fractal() offsets it. col/fx: each
  // output column's lattice column (counted from ix0) and offset in its
  // cell, the same on every row. top/bot: lattice rows iy and iy + 1 at
  // columns ix0, ix0 + 1, ...; mix: their vertical blend at one row's fy.
  struct Octave {
    int cell = 0;
    int shift = 0;  // log2 of the octave's weight
    int dy = 0;
    int ix0 = 0;
    int iy = 0;
    common::ExactDivisor area{1};  // by cell^2
    std::vector<int> col, fx, top, bot, mix;
  };
  const auto hash_row = [this](const Octave& oct, int iy,
                               std::vector<int>& row) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      row[k] = lattice(oct.ix0 + static_cast<int>(k), iy);
    }
  };
  std::vector<Octave> octs;
  int weight_sum = 0;
  for (int o = 0; o < octaves; ++o) {
    Octave oct;
    oct.cell = base_cell >> o;
    if (oct.cell < 1) break;
    oct.shift = octaves - 1 - o;
    oct.area = common::ExactDivisor(oct.cell * oct.cell);
    const int dx = o * 7919;
    oct.dy = o * 104729;
    oct.ix0 = floor_div(x0 + dx, oct.cell);
    oct.col.resize(w);
    oct.fx.resize(w);
    for (int i = 0; i < w; ++i) {
      const int x = x0 + i * step + dx;
      const int ix = floor_div(x, oct.cell);
      oct.col[i] = ix - oct.ix0;
      oct.fx[i] = x - ix * oct.cell;
    }
    const int lattice_cols = oct.col[w - 1] + 2;
    oct.top.resize(lattice_cols);
    oct.bot.resize(lattice_cols);
    oct.mix.resize(lattice_cols);
    oct.iy = floor_div(y0 + oct.dy, oct.cell);
    hash_row(oct, oct.iy, oct.top);
    hash_row(oct, oct.iy + 1, oct.bot);
    weight_sum += 1 << oct.shift;
    octs.push_back(std::move(oct));
  }
  if (weight_sum == 0) {  // base_cell < 1: fractal() returns 128
    std::fill(out, out + static_cast<std::size_t>(w) * h, 128);
    return;
  }

  const common::ExactDivisor by_weight(weight_sum);
  std::vector<int> acc(w);
  for (int r = 0; r < h; ++r) {
    std::fill(acc.begin(), acc.end(), 0);
    for (Octave& oct : octs) {
      const int cell = oct.cell;
      const int y = y0 + r * step + oct.dy;
      const int iy = floor_div(y, cell);
      const int fy = y - iy * cell;
      if (iy != oct.iy) {
        // Rows only move down: one step down reuses the old bottom row.
        if (iy == oct.iy + 1) {
          std::swap(oct.top, oct.bot);
        } else {
          hash_row(oct, iy, oct.top);
        }
        hash_row(oct, iy + 1, oct.bot);
        oct.iy = iy;
      }
      for (std::size_t k = 0; k < oct.mix.size(); ++k) {
        oct.mix[k] = oct.top[k] * (cell - fy) + oct.bot[k] * fy;
      }
      for (int i = 0; i < w; ++i) {
        const int k = oct.col[i];
        const int fx = oct.fx[i];
        const int val = oct.mix[k] * (cell - fx) + oct.mix[k + 1] * fx;
        acc[i] += oct.area.divide(val) << oct.shift;
      }
    }
    std::uint8_t* row = out + static_cast<std::size_t>(r) * w;
    for (int i = 0; i < w; ++i) {
      row[i] = static_cast<std::uint8_t>(by_weight.divide(acc[i]));
    }
  }
}

}  // namespace pbpair::video
