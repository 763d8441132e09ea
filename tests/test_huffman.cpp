// Tests for canonical Huffman construction and the codec VLC tables.
#include <gtest/gtest.h>

#include <ostream>

#include "codec/huffman.h"
#include "codec/vlc_tables.h"
#include "common/rng.h"

namespace pbpair::codec {
namespace {

TEST(Huffman, TwoSymbolCodeIsOneBit) {
  HuffmanCode code({10, 20});
  EXPECT_EQ(code.length(0), 1);
  EXPECT_EQ(code.length(1), 1);
  EXPECT_TRUE(code.is_prefix_free());
}

TEST(Huffman, SkewedFrequenciesGiveShorterCodes) {
  HuffmanCode code({1000, 100, 10, 1});
  EXPECT_LE(code.length(0), code.length(1));
  EXPECT_LE(code.length(1), code.length(2));
  EXPECT_LE(code.length(2), code.length(3));
}

TEST(Huffman, UniformFrequenciesGiveBalancedCode) {
  HuffmanCode code(std::vector<std::uint64_t>(8, 5));
  for (int s = 0; s < 8; ++s) EXPECT_EQ(code.length(s), 3);
}

TEST(Huffman, AllSymbolsRoundTrip) {
  HuffmanCode code({50, 30, 10, 5, 3, 1, 1});
  for (int s = 0; s < code.symbol_count(); ++s) {
    BitWriter writer;
    code.encode(writer, s);
    auto bytes = writer.finish();
    BitReader reader(bytes);
    int got = -1;
    ASSERT_TRUE(code.decode(reader, &got));
    EXPECT_EQ(got, s);
  }
}

TEST(Huffman, StreamOfSymbolsRoundTrips) {
  HuffmanCode code({100, 50, 25, 12, 6, 3, 2, 1});
  common::Pcg32 rng(9);
  std::vector<int> symbols;
  BitWriter writer;
  for (int i = 0; i < 1000; ++i) {
    int s = static_cast<int>(rng.next_below(8));
    symbols.push_back(s);
    code.encode(writer, s);
  }
  auto bytes = writer.finish();
  BitReader reader(bytes);
  for (int expected : symbols) {
    int got = -1;
    ASSERT_TRUE(code.decode(reader, &got));
    ASSERT_EQ(got, expected);
  }
}

TEST(Huffman, PrefixFreeForRandomFrequencies) {
  common::Pcg32 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 2 + static_cast<int>(rng.next_below(60));
    std::vector<std::uint64_t> freqs(n);
    for (auto& f : freqs) f = 1 + rng.next_below(100000);
    HuffmanCode code(freqs);
    EXPECT_TRUE(code.is_prefix_free()) << "trial " << trial;
  }
}

TEST(Huffman, KraftEqualityHolds) {
  // Huffman lengths always satisfy sum 2^-len == 1 (complete code).
  HuffmanCode code({7, 5, 2, 2, 1, 1});
  double kraft = 0.0;
  for (int s = 0; s < code.symbol_count(); ++s) {
    kraft += 1.0 / static_cast<double>(1u << code.length(s));
  }
  EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(Huffman, ConstructionIsDeterministic) {
  std::vector<std::uint64_t> freqs = {5, 5, 5, 5, 3, 3, 2};
  HuffmanCode a(freqs);
  HuffmanCode b(freqs);
  for (int s = 0; s < a.symbol_count(); ++s) {
    EXPECT_EQ(a.length(s), b.length(s));
  }
}

TEST(Huffman, TruncatedInputFails) {
  HuffmanCode code({1, 1, 1, 1});  // 2-bit codes
  std::vector<std::uint8_t> empty;
  BitReader reader(empty);
  int s;
  EXPECT_FALSE(code.decode(reader, &s));
}

// --- CoeffVlc (TCOEF analogue) ---

TEST(CoeffVlc, TableIsPrefixFree) {
  EXPECT_TRUE(coeff_vlc().table().is_prefix_free());
}

struct CoeffCase {
  bool last;
  int run;
  int level;
};

// Names each case by its fields. gtest's fallback prints the raw bytes,
// including the uninitialised padding after `last`, so the test names
// changed from run to run.
void PrintTo(const CoeffCase& c, std::ostream* os) {
  *os << '{' << (c.last ? "true" : "false") << ", " << c.run << ", "
      << c.level << '}';
}

class CoeffVlcRoundTrip : public ::testing::TestWithParam<CoeffCase> {};

TEST_P(CoeffVlcRoundTrip, EncodesAndDecodes) {
  const CoeffCase& c = GetParam();
  BitWriter writer;
  coeff_vlc().encode(writer, CoeffEvent{c.last, c.run, c.level});
  auto bytes = writer.finish();
  BitReader reader(bytes);
  CoeffEvent got{};
  ASSERT_TRUE(coeff_vlc().decode(reader, &got));
  EXPECT_EQ(got.last, c.last);
  EXPECT_EQ(got.run, c.run);
  EXPECT_EQ(got.level, c.level);
}

INSTANTIATE_TEST_SUITE_P(
    TableAndEscape, CoeffVlcRoundTrip,
    ::testing::Values(CoeffCase{false, 0, 1}, CoeffCase{false, 0, -1},
                      CoeffCase{true, 0, 1}, CoeffCase{false, 5, 2},
                      CoeffCase{true, 10, 3}, CoeffCase{false, 10, -3},
                      // escape cases: run or |level| beyond the table
                      CoeffCase{false, 11, 1}, CoeffCase{true, 30, 1},
                      CoeffCase{false, 0, 4}, CoeffCase{true, 0, -90},
                      CoeffCase{false, 62, 127}, CoeffCase{true, 62, -127}));

TEST(CoeffVlc, AllTableEventsRoundTrip) {
  for (int last = 0; last <= 1; ++last) {
    for (int run = 0; run <= 10; ++run) {
      for (int level = 1; level <= 3; ++level) {
        for (int sign = -1; sign <= 1; sign += 2) {
          CoeffEvent event{last != 0, run, sign * level};
          BitWriter writer;
          coeff_vlc().encode(writer, event);
          auto bytes = writer.finish();
          BitReader reader(bytes);
          CoeffEvent got{};
          ASSERT_TRUE(coeff_vlc().decode(reader, &got));
          ASSERT_EQ(got.last, event.last);
          ASSERT_EQ(got.run, event.run);
          ASSERT_EQ(got.level, event.level);
        }
      }
    }
  }
}

TEST(CoeffVlc, CommonEventsCostFewerBits) {
  auto bits_for = [](CoeffEvent e) {
    BitWriter writer;
    coeff_vlc().encode(writer, e);
    return writer.bit_count();
  };
  // (run 0, level 1) is the most common event in low-bitrate video; it must
  // be cheaper than rarer events and much cheaper than escapes.
  EXPECT_LT(bits_for({false, 0, 1}), bits_for({false, 5, 2}));
  EXPECT_LT(bits_for({false, 0, 1}), bits_for({false, 20, 10}));
}

// --- CbpVlc ---

TEST(CbpVlc, TableIsPrefixFree) {
  EXPECT_TRUE(cbp_vlc().table().is_prefix_free());
}

TEST(CbpVlc, AllPatternsRoundTrip) {
  for (int cbp = 0; cbp < 64; ++cbp) {
    BitWriter writer;
    cbp_vlc().encode(writer, cbp);
    auto bytes = writer.finish();
    BitReader reader(bytes);
    int got = -1;
    ASSERT_TRUE(cbp_vlc().decode(reader, &got));
    ASSERT_EQ(got, cbp);
  }
}

TEST(CbpVlc, SparsePatternsAreCheaper) {
  auto bits_for = [](int cbp) {
    BitWriter writer;
    cbp_vlc().encode(writer, cbp);
    return writer.bit_count();
  };
  EXPECT_LE(bits_for(0x00), bits_for(0x0F));  // nothing vs all luma
  EXPECT_LE(bits_for(0x01), bits_for(0x3F));  // one block vs everything
}

}  // namespace
}  // namespace pbpair::codec
