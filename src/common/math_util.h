// Small integer math helpers shared by the codec and simulation layers.
#pragma once

#include <cstdint>

namespace pbpair::common {

template <typename T>
constexpr T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Clamps to the 8-bit pixel range.
constexpr std::uint8_t clamp_pixel(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/// Integer division rounding up; b must be positive.
constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// n / d as a multiply and a shift, exact for 0 <= n < 2^24 and
/// 1 <= d <= 2^16. M = ceil(2^40 / d) = (2^40 + e) / d with 0 <= e < d, so
/// n * M / 2^40 = n / d + n * e / (d * 2^40). n * e < 2^24 * 2^16 = 2^40
/// keeps the second term below 1 / d, and the fraction of n / d is at most
/// (d - 1) / d, so the floor of the sum is exactly n / d. n * M < 2^64.
class ExactDivisor {
 public:
  explicit constexpr ExactDivisor(int d)
      : m_(((std::uint64_t{1} << 40) + static_cast<std::uint64_t>(d) - 1) /
           static_cast<std::uint64_t>(d)) {}

  constexpr int divide(int n) const {
    return static_cast<int>((static_cast<std::uint64_t>(n) * m_) >> 40);
  }

 private:
  std::uint64_t m_;
};

/// abs() that is safe for INT_MIN-free codec ranges.
constexpr int iabs(int v) { return v < 0 ? -v : v; }

/// Integer square root (floor), for metrics on integer accumulators.
constexpr std::uint32_t isqrt(std::uint64_t v) {
  std::uint64_t lo = 0, hi = 0xFFFFFFFFULL;
  while (lo < hi) {
    std::uint64_t mid = (lo + hi + 1) >> 1;
    if (mid * mid <= v) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return static_cast<std::uint32_t>(lo);
}

}  // namespace pbpair::common
