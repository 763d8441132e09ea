#include "video/sequence.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "video/noise.h"

namespace pbpair::video {
namespace {

// Quarter-wave integer sine table: kSinTable[i] = round(256*sin(pi/2*i/64)).
constexpr int kSinTable[65] = {
    0,   6,   13,  19,  25,  31,  38,  44,  50,  56,  62,  69,  75,
    81,  87,  93,  98,  104, 109, 115, 121, 126, 132, 137, 142, 147,
    152, 158, 162, 167, 172, 177, 181, 185, 190, 194, 198, 202, 206,
    209, 213, 216, 220, 223, 226, 229, 231, 234, 236, 239, 241, 243,
    245, 247, 248, 250, 251, 252, 253, 254, 255, 255, 256, 256, 256};

// 256-step sine, returns sin(2*pi*t/period) scaled to [-256, 256].
int sin_q8(int t, int period) {
  if (period <= 0) return 0;
  // Map t into [0, 256) phase units. Callers pass t >= 0.
  long long phase256 = (static_cast<long long>(t % period) * 256) / period;
  int p = static_cast<int>(phase256 & 255);
  int quadrant = p >> 6;   // 0..3
  int idx = p & 63;        // 0..63
  switch (quadrant) {
    case 0: return kSinTable[idx];
    case 1: return kSinTable[64 - idx];
    case 2: return -kSinTable[idx];
    default: return -kSinTable[64 - idx];
  }
}

std::uint64_t hash2(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  common::SplitMix64 mixer(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                           (b * 0xC2B2AE3D27D4EB4FULL));
  return mixer.next();
}

// Ellipse interior test without division:
// (dx/rx)^2 + (dy/ry)^2 <= 1  <=>  (dx*ry)^2 + (dy*rx)^2 <= (rx*ry)^2
bool in_ellipse(long long dx, long long dy, long long rx, long long ry) {
  return dx * dx * ry * ry + dy * dy * rx * rx <= rx * rx * ry * ry;
}

// The range [*lo, *hi] of [0, size) along one axis that can pass
// in_ellipse. (d * other_radius)^2 <= (radius * other_radius)^2 bounds |d|
// by radius only when other_radius > 0; a zero other radius flattens the
// ellipse to a line that does not bound this axis.
void sprite_span(int center, int radius, int other_radius, int size, int* lo,
                 int* hi) {
  *lo = other_radius > 0 ? std::max(0, center - radius) : 0;
  *hi = other_radius > 0 ? std::min(size - 1, center + radius) : size - 1;
}

}  // namespace

const char* sequence_kind_name(SequenceKind kind) {
  switch (kind) {
    case SequenceKind::kAkiyoLike: return "akiyo";
    case SequenceKind::kForemanLike: return "foreman";
    case SequenceKind::kGardenLike: return "garden";
  }
  return "unknown";
}

SyntheticSequence::SyntheticSequence(SequenceKind kind, int width, int height,
                                     std::uint64_t seed)
    : kind_(kind), width_(width), height_(height), seed_(seed) {
  PB_CHECK(width % 16 == 0 && height % 16 == 0);
}

void SyntheticSequence::global_offset(int index, int* off_x,
                                      int* off_y) const {
  switch (kind_) {
    case SequenceKind::kAkiyoLike:
      // Tripod camera: perfectly static background.
      *off_x = 0;
      *off_y = 0;
      return;
    case SequenceKind::kForemanLike: {
      // Handheld jitter: bounded random walk derived from a per-frame hash
      // so frame_at stays random-access. Walk amplitude about +/-3 px.
      int wx = 0, wy = 0;
      // Sum the last 6 per-frame steps; older steps are forgotten, which
      // bounds the walk while keeping frame-to-frame deltas of 0..1 px.
      for (int k = index > 6 ? index - 6 : 0; k < index; ++k) {
        std::uint64_t h = hash2(seed_, 0xF0F0, static_cast<std::uint64_t>(k));
        wx += static_cast<int>(h % 3) - 1;
        wy += static_cast<int>((h >> 8) % 3) - 1;
      }
      *off_x = wx;
      *off_y = wy;
      return;
    }
    case SequenceKind::kGardenLike:
      // Constant pan, ~2.5 px/frame horizontal and slight vertical drift:
      // the whole frame moves, so every MB sees motion.
      *off_x = (index * 5) / 2;
      *off_y = index / 4;
      return;
  }
  *off_x = 0;
  *off_y = 0;
}

int SyntheticSequence::sprite_count() const {
  switch (kind_) {
    case SequenceKind::kAkiyoLike: return 2;   // head + mouth region
    case SequenceKind::kForemanLike: return 2; // face + helmet
    case SequenceKind::kGardenLike: return 0;  // pure global motion
  }
  return 0;
}

SyntheticSequence::Sprite SyntheticSequence::sprite(int which,
                                                    int index) const {
  Sprite s{};
  const int w = width_;
  const int h = height_;
  if (kind_ == SequenceKind::kAkiyoLike) {
    if (which == 0) {
      // Head: large ellipse, very small sway (~2 px over ~60 frames).
      s = Sprite{w / 2, h * 2 / 5, w / 6, h / 4, 2,    1,   64, 0,
                 5000,  118,       132};
    } else {
      // Mouth/jaw region: small ellipse with faster small bob (talking).
      s = Sprite{w / 2, h / 2, w / 14, h / 18, 1,    2,   12, 3,
                 9000,  120,   134};
    }
  } else {  // foreman-like
    if (which == 0) {
      // Face: bigger sway than akiyo (~6 px), moderate period.
      s = Sprite{w / 2, h / 2, w / 5, h / 3, 6,    4,   40, 0,
                 7000,  116,   136};
    } else {
      // Helmet above the face, moves in (loose) sync with it.
      s = Sprite{w / 2, h / 4, w / 4, h / 6, 6,    3,   40, 5,
                 3000,  124,   124};
    }
  }
  // Apply sinusoidal displacement for this frame.
  s.cx += (s.amp_x * sin_q8(index + s.phase, s.period)) / 256;
  s.cy += (s.amp_y * sin_q8(2 * (index + s.phase), s.period)) / 256;
  return s;
}

YuvFrame SyntheticSequence::frame_at(int index) const {
  PB_CHECK(index >= 0);
  YuvFrame frame(width_, height_);
  ValueNoise bg_noise(seed_ ^ 0xA11CE);
  ValueNoise sprite_noise(seed_ ^ 0xB0B);
  ValueNoise chroma_noise(seed_ ^ 0xCAFE);

  int off_x = 0, off_y = 0;
  global_offset(index, &off_x, &off_y);

  // Background detail per kind: garden has fine texture (small cells, more
  // octaves) so panning generates large SADs; akiyo is smooth.
  int base_cell, octaves, dyn_lo, dyn_hi;
  switch (kind_) {
    case SequenceKind::kAkiyoLike:
      base_cell = 48; octaves = 2; dyn_lo = 70; dyn_hi = 190;
      break;
    case SequenceKind::kForemanLike:
      base_cell = 24; octaves = 3; dyn_lo = 55; dyn_hi = 205;
      break;
    case SequenceKind::kGardenLike:
    default:
      base_cell = 10; octaves = 4; dyn_lo = 40; dyn_hi = 220;
      break;
  }

  // The Y plane first holds each pixel's noise value in [0, 255], and the
  // chroma planes their final values; the sprites then overwrite both.
  Plane& yp = frame.y();
  Plane& up = frame.u();
  Plane& vp = frame.v();
  bg_noise.fractal_block(off_x, off_y, 1, width_, height_, base_cell,
                         octaves, yp.data().data());
  // Chroma: smooth fields around neutral, sampled at half resolution.
  const int chroma_w = width_ / 2;
  const int chroma_h = height_ / 2;
  chroma_noise.fractal_block(off_x, off_y, 2, chroma_w, chroma_h,
                             base_cell * 2, 2, up.data().data());
  chroma_noise.fractal_block(off_x + 31337, off_y + 271, 2, chroma_w,
                             chroma_h, base_cell * 2, 2, vp.data().data());
  for (Plane* plane : {&up, &vp}) {
    for (std::uint8_t& p : plane->data()) {
      p = common::clamp_pixel(128 + (p - 128) / 4);
    }
  }

  // Sprites back to front, so a later sprite covers an earlier one. Only
  // their bounding boxes can pass the ellipse test.
  std::vector<std::uint8_t> texture;
  for (int i = 0; i < sprite_count(); ++i) {
    const Sprite s = sprite(i, index);
    int x_lo, x_hi, y_lo, y_hi;
    sprite_span(s.cx, s.rx, s.ry, width_, &x_lo, &x_hi);
    sprite_span(s.cy, s.ry, s.rx, height_, &y_lo, &y_hi);
    if (x_lo > x_hi || y_lo > y_hi) continue;
    const int box_w = x_hi - x_lo + 1;
    const int box_h = y_hi - y_lo + 1;
    // Sprite texture is sampled in sprite-local coordinates so it moves
    // rigidly with the sprite (true motion, not boiling).
    texture.resize(static_cast<std::size_t>(box_w) * box_h);
    sprite_noise.fractal_block(x_lo - s.cx + s.tex_offset,
                               y_lo - s.cy + s.tex_offset, 1, box_w, box_h,
                               16, 2, texture.data());
    for (int y = y_lo; y <= y_hi; ++y) {
      std::uint8_t* row = yp.row(y);
      const std::uint8_t* tex =
          texture.data() + static_cast<std::size_t>(y - y_lo) * box_w;
      for (int x = x_lo; x <= x_hi; ++x) {
        if (in_ellipse(x - s.cx, y - s.cy, s.rx, s.ry)) row[x] = tex[x - x_lo];
      }
    }
    // Sprite tints on the chroma samples, which sit at even luma positions.
    for (int cy = (y_lo + 1) / 2; cy <= y_hi / 2; ++cy) {
      for (int cx = (x_lo + 1) / 2; cx <= x_hi / 2; ++cx) {
        if (in_ellipse(cx * 2 - s.cx, cy * 2 - s.cy, s.rx, s.ry)) {
          up.set(cx, cy, common::clamp_pixel(s.chroma_u));
          vp.set(cx, cy, common::clamp_pixel(s.chroma_v));
        }
      }
    }
  }

  for (int y = 0; y < height_; ++y) {
    std::uint8_t* row = yp.row(y);
    for (int x = 0; x < width_; ++x) {
      int pixel = dyn_lo + (row[x] * (dyn_hi - dyn_lo)) / 255;
      if (kind_ == SequenceKind::kAkiyoLike) {
        // Studio sensor noise, +/-2 gray levels, varying per frame. Real
        // AKIYO has this; without it the background is mathematically
        // static, copy concealment is *perfect*, and no rational refresh
        // scheme would ever spend bits there (see DESIGN.md §2). The noise
        // is below the encoder's dead zone, so bitrate stays "akiyo-low".
        std::uint64_t h =
            hash2(seed_ ^ 0x5E4503, static_cast<std::uint64_t>(index),
                  (static_cast<std::uint64_t>(y) << 20) | static_cast<std::uint64_t>(x));
        pixel += static_cast<int>(h % 5) - 2;
      }
      row[x] = common::clamp_pixel(pixel);
    }
  }
  return frame;
}

SyntheticSequence make_paper_sequence(SequenceKind kind, std::uint64_t seed) {
  return SyntheticSequence(kind, kQcifWidth, kQcifHeight, seed);
}

}  // namespace pbpair::video
