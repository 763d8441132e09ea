// Tests for common utilities: deterministic RNG, Q16 fixed point, math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/fixed.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace pbpair::common {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(0);
  SplitMix64 b(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(1234);
  Pcg32 b(1234);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(7, 1);
  Pcg32 b(7, 2);
  bool any_different = false;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u32() != b.next_u32()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Pcg32, NextBelowStaysInRange) {
  Pcg32 rng(99);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Pcg32, NextBelowCoversAllValues) {
  Pcg32 rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, NextInRangeInclusiveBounds) {
  Pcg32 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, DoubleInUnitInterval) {
  Pcg32 rng(21);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32, BernoulliMatchesRate) {
  Pcg32 rng(31);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bernoulli(0.1)) ++hits;
  }
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(Pcg32, BernoulliDegenerateProbabilities) {
  Pcg32 rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
    EXPECT_FALSE(rng.next_bernoulli(-0.5));
    EXPECT_TRUE(rng.next_bernoulli(1.5));
  }
}

TEST(Q16, ConversionRoundTrips) {
  for (double v : {0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9}) {
    EXPECT_NEAR(q16_to_double(q16_from_double(v)), v, 1e-4);
  }
}

TEST(Q16, ConversionClamps) {
  EXPECT_EQ(q16_from_double(-0.5), 0u);
  EXPECT_EQ(q16_from_double(1.5), kQ16One);
}

TEST(Q16, MulMatchesDoubleMul) {
  for (double a : {0.0, 0.1, 0.5, 0.99, 1.0}) {
    for (double b : {0.0, 0.2, 0.5, 1.0}) {
      Q16 got = q16_mul(q16_from_double(a), q16_from_double(b));
      EXPECT_NEAR(q16_to_double(got), a * b, 2e-4) << a << "*" << b;
    }
  }
}

TEST(Q16, MulStaysInUnitInterval) {
  EXPECT_LE(q16_mul(kQ16One, kQ16One), kQ16One);
  EXPECT_EQ(q16_mul(0, kQ16One), 0u);
}

TEST(Q16, AddSaturates) {
  EXPECT_EQ(q16_add_sat(kQ16One, kQ16One), kQ16One);
  EXPECT_EQ(q16_add_sat(q16_from_double(0.6), q16_from_double(0.6)), kQ16One);
  EXPECT_EQ(q16_add_sat(q16_from_double(0.25), q16_from_double(0.25)),
            q16_from_double(0.5));
}

TEST(Q16, Complement) {
  EXPECT_EQ(q16_complement(0), kQ16One);
  EXPECT_EQ(q16_complement(kQ16One), 0u);
  EXPECT_EQ(q16_complement(q16_from_double(0.25)), q16_from_double(0.75));
}

TEST(Q16, RatioClamped) {
  EXPECT_EQ(q16_ratio_clamped(1, 2), kQ16One / 2);
  EXPECT_EQ(q16_ratio_clamped(5, 5), kQ16One);
  EXPECT_EQ(q16_ratio_clamped(7, 5), kQ16One);  // clamps above 1
  EXPECT_EQ(q16_ratio_clamped(3, 0), kQ16One);  // 0 denominator convention
  EXPECT_EQ(q16_ratio_clamped(0, 9), 0u);
}

TEST(MathUtil, Clamp) {
  EXPECT_EQ(clamp(5, 0, 10), 5);
  EXPECT_EQ(clamp(-5, 0, 10), 0);
  EXPECT_EQ(clamp(15, 0, 10), 10);
}

TEST(MathUtil, ClampPixel) {
  EXPECT_EQ(clamp_pixel(-1), 0);
  EXPECT_EQ(clamp_pixel(0), 0);
  EXPECT_EQ(clamp_pixel(128), 128);
  EXPECT_EQ(clamp_pixel(255), 255);
  EXPECT_EQ(clamp_pixel(300), 255);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(MathUtil, ExactDivisorOverTheBlockFillRange) {
  // Every divisor and numerator ValueNoise::fractal_block divides: cell^2
  // for cells up to 256 with numerators up to 255 * cell^2, and octave
  // weight sums up to 63 with numerators up to 255 * 63. n * M >> 40 grows
  // with n, so the first and last numerator of each quotient cover the
  // numerators between them.
  const auto check = [](int d, int n_max) {
    const ExactDivisor div(d);
    for (int q = 0; q * d <= n_max; ++q) {
      const int last = std::min(q * d + d - 1, n_max);
      ASSERT_EQ(div.divide(q * d), q) << "d " << d;
      ASSERT_EQ(div.divide(last), q) << "d " << d << " n " << last;
    }
  };
  for (int cell = 1; cell <= 256; ++cell) {
    check(cell * cell, 255 * cell * cell);
  }
  for (int weight_sum = 1; weight_sum <= 63; ++weight_sum) {
    check(weight_sum, 255 * weight_sum);
  }
}

TEST(MathUtil, Iabs) {
  EXPECT_EQ(iabs(5), 5);
  EXPECT_EQ(iabs(-5), 5);
  EXPECT_EQ(iabs(0), 0);
}

TEST(MathUtil, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(255 * 255), 255u);
  EXPECT_EQ(isqrt(1000000), 1000u);
}

class IsqrtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsqrtProperty, FloorSquareRootInvariant) {
  std::uint64_t v = GetParam();
  std::uint64_t root = isqrt(v);
  EXPECT_LE(root * root, v);
  EXPECT_GT((root + 1) * (root + 1), v);
}

INSTANTIATE_TEST_SUITE_P(Values, IsqrtProperty,
                         ::testing::Values(0ull, 1ull, 2ull, 99ull, 100ull,
                                           65535ull, 65536ull, 1234567ull,
                                           0xFFFFFFFFull, 0x123456789ull));

}  // namespace
}  // namespace pbpair::common
