#include "video/metrics.h"

#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/math_util.h"

namespace pbpair::video {

namespace {

// Sums pixel_term(a, b) over every luma pixel pair. Luma planes are
// contiguous (stride == width), so it walks each plane as one array: fixed
// 64-pixel blocks with a 32-bit block sum, which the compiler vectorizes
// (a term is at most 255^2, and 64 * 255^2 fits in 32 bits), then a scalar
// tail.
template <typename PixelTerm>
std::uint64_t sum_luma(const YuvFrame& a, const YuvFrame& b,
                       PixelTerm pixel_term) {
  PB_CHECK(a.same_size(b));
  constexpr std::size_t kBlock = 64;
  const std::uint8_t* pa = a.y().data().data();
  const std::uint8_t* pb = b.y().data().data();
  const std::size_t n = a.y().data().size();
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::uint32_t block = 0;
    for (std::size_t j = i; j < i + kBlock; ++j) {
      block += pixel_term(pa[j], pb[j]);
    }
    sum += block;
  }
  for (; i < n; ++i) sum += pixel_term(pa[i], pb[i]);
  return sum;
}

}  // namespace

std::uint64_t sse_luma(const YuvFrame& a, const YuvFrame& b) {
  return sum_luma(a, b, [](int u, int v) {
    return static_cast<std::uint32_t>((u - v) * (u - v));
  });
}

double mse_luma(const YuvFrame& a, const YuvFrame& b) {
  std::uint64_t sse = sse_luma(a, b);
  double n = static_cast<double>(a.width()) * a.height();
  return static_cast<double>(sse) / n;
}

double psnr_luma(const YuvFrame& a, const YuvFrame& b, double cap_db) {
  double mse = mse_luma(a, b);
  if (mse <= 0.0) return cap_db;
  double psnr = 10.0 * std::log10(255.0 * 255.0 / mse);
  return psnr > cap_db ? cap_db : psnr;
}

std::uint64_t bad_pixel_count(const YuvFrame& a, const YuvFrame& b,
                              int threshold) {
  return sum_luma(a, b, [threshold](int u, int v) {
    return common::iabs(u - v) > threshold ? 1u : 0u;
  });
}

double ssim_luma(const YuvFrame& a, const YuvFrame& b) {
  PB_CHECK(a.same_size(b));
  // Standard SSIM constants for 8-bit depth.
  constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
  constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
  const Plane& pa = a.y();
  const Plane& pb = b.y();
  double total = 0.0;
  int windows = 0;
  for (int wy = 0; wy + 8 <= pa.height(); wy += 8) {
    for (int wx = 0; wx + 8 <= pa.width(); wx += 8) {
      // Integer accumulators over the 8x8 window.
      std::int64_t sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
      for (int y = 0; y < 8; ++y) {
        const std::uint8_t* ra = pa.row(wy + y) + wx;
        const std::uint8_t* rb = pb.row(wy + y) + wx;
        for (int x = 0; x < 8; ++x) {
          int va = ra[x];
          int vb = rb[x];
          sum_a += va;
          sum_b += vb;
          sum_aa += va * va;
          sum_bb += vb * vb;
          sum_ab += va * vb;
        }
      }
      constexpr double kN = 64.0;
      double mu_a = static_cast<double>(sum_a) / kN;
      double mu_b = static_cast<double>(sum_b) / kN;
      double var_a = static_cast<double>(sum_aa) / kN - mu_a * mu_a;
      double var_b = static_cast<double>(sum_bb) / kN - mu_b * mu_b;
      double cov = static_cast<double>(sum_ab) / kN - mu_a * mu_b;
      double ssim = ((2.0 * mu_a * mu_b + kC1) * (2.0 * cov + kC2)) /
                    ((mu_a * mu_a + mu_b * mu_b + kC1) *
                     (var_a + var_b + kC2));
      total += ssim;
      ++windows;
    }
  }
  return windows > 0 ? total / windows : 1.0;
}

}  // namespace pbpair::video
