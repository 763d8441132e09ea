// Packet-level FEC (net/fec.h, DESIGN.md §12): field arithmetic, the MDS
// recovery guarantee (exhaustively for small windows, randomized against
// an independent reference solver for large ones), wire robustness, the
// pipeline stages, and the joint Intra_Th/FEC-rate controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/adaptation.h"
#include "net/fec.h"
#include "net/gf256.h"
#include "net/loss_model.h"
#include "net/packetizer.h"
#include "sim/session.h"
#include "sim/session_manager.h"

namespace pbpair::net {
namespace {

using common::Pcg32;

// --- reference GF(256) arithmetic ---------------------------------------
// Independent of the table implementation under test: carry-less
// "Russian peasant" multiply reduced by the same primitive polynomial.

std::uint8_t ref_mul(std::uint8_t a, std::uint8_t b) {
  std::uint16_t x = a;
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result ^= static_cast<std::uint8_t>(x);
    x <<= 1;
    if (x & 0x100) x ^= 0x11D;
    b >>= 1;
  }
  return result;
}

TEST(Gf256, MulMatchesReferenceExhaustively) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf256_mul(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)),
                ref_mul(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const std::uint8_t inv = gf256_inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a), inv), 1) << a;
    EXPECT_EQ(gf256_div(1, static_cast<std::uint8_t>(a)), inv) << a;
  }
}

TEST(Gf256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group: 2^i for i in [0,255) hits every
  // nonzero element exactly once, and 2^255 wraps to 1.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    const std::uint8_t v = gf256_exp(i);
    EXPECT_FALSE(seen[v]) << "2^" << i << " repeated";
    seen[v] = true;
  }
  EXPECT_FALSE(seen[0]);
  EXPECT_EQ(gf256_exp(255), gf256_exp(0));
}

TEST(Gf256, AddmulMatchesPerByteMul) {
  Pcg32 rng(2026, 1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint8_t c = static_cast<std::uint8_t>(rng.next_u32());
    std::vector<std::uint8_t> dst(97), src(97);
    for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_u32());
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_u32());
    std::vector<std::uint8_t> expected = dst;
    for (std::size_t i = 0; i < src.size(); ++i) {
      expected[i] ^= ref_mul(src[i], c);
    }
    gf256_addmul(dst.data(), src.data(), c, dst.size());
    EXPECT_EQ(dst, expected) << "c=" << static_cast<int>(c);

    std::vector<std::uint8_t> scaled = src;
    gf256_scale(scaled.data(), c, scaled.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(scaled[i], ref_mul(src[i], c));
    }
  }
}

// --- window construction helpers ----------------------------------------

std::vector<Packet> make_media_packets(int count, Pcg32& rng,
                                       std::uint16_t base_sequence = 100,
                                       bool vary_sizes = true) {
  std::vector<Packet> packets;
  for (int i = 0; i < count; ++i) {
    Packet p;
    p.header.sequence = static_cast<std::uint16_t>(base_sequence + i);
    p.header.timestamp = 7;
    p.header.ssrc = 0x5005;
    p.header.frame_type = 1;
    p.header.qp = 10;
    p.header.first_gob = static_cast<std::uint8_t>(i);
    p.header.num_gobs = 1;
    p.header.marker = i == count - 1;
    const std::uint32_t len = vary_sizes ? 20 + rng.next_below(200) : 64;
    p.payload.resize(len);
    std::uint8_t* bytes = p.payload.mutable_data();
    for (std::uint32_t j = 0; j < len; ++j) {
      bytes[j] = static_cast<std::uint8_t>(rng.next_u32());
    }
    packets.push_back(std::move(p));
  }
  return packets;
}

std::string packet_key(const Packet& p) {
  std::string key(reinterpret_cast<const char*>(serialize_packet(p).data()),
                  p.wire_size());
  return key;
}

// --- MDS recovery: exhaustive for k <= 4 --------------------------------

// Every loss pattern of at most m packets (data AND repair) over the
// k+m window must recover every lost data packet, for both schemes.
TEST(FecRecovery, ExhaustiveSmallWindowsEveryErasurePattern) {
  Pcg32 rng(2026, 2);
  for (int k = 1; k <= 4; ++k) {
    for (int m = 1; m <= 4; ++m) {
      const FecScheme schemes[] = {FecScheme::kXorParity,
                                   FecScheme::kReedSolomon};
      for (FecScheme scheme : schemes) {
        if (scheme == FecScheme::kXorParity && m != 1) continue;
        FecConfig config;
        config.scheme = scheme;
        config.k = k;
        config.m = m;
        FecEncoder encoder(config);
        std::vector<Packet> window = make_media_packets(k, rng);
        std::vector<std::string> original;
        for (const Packet& p : window) original.push_back(packet_key(p));
        ASSERT_EQ(encoder.protect(&window), m);
        const int n = k + m;

        // Every subset of [0, n) with <= m elements, via bitmask.
        for (unsigned mask = 0; mask < (1u << n); ++mask) {
          if (__builtin_popcount(mask) > m) continue;
          std::vector<Packet> delivered;
          for (int i = 0; i < n; ++i) {
            if ((mask & (1u << i)) == 0) delivered.push_back(window[i]);
          }
          FecDecoder decoder;
          std::vector<Packet> out = decoder.process(std::move(delivered));
          ASSERT_EQ(out.size(), static_cast<std::size_t>(k))
              << "k=" << k << " m=" << m << " mask=" << mask;
          for (int i = 0; i < k; ++i) {
            ASSERT_EQ(packet_key(out[i]), original[i])
                << "k=" << k << " m=" << m << " mask=" << mask << " i=" << i;
            const bool was_lost = (mask & (1u << i)) != 0;
            ASSERT_EQ(out[i].recovered, was_lost);
          }
          ASSERT_EQ(decoder.stats().windows_unrecoverable, 0u);
        }
      }
    }
  }
}

TEST(FecRecovery, LossBeyondMIsCountedUnrecoverable) {
  Pcg32 rng(2026, 3);
  FecConfig config;
  config.k = 4;
  config.m = 2;
  FecEncoder encoder(config);
  std::vector<Packet> window = make_media_packets(4, rng);
  encoder.protect(&window);
  // Lose 3 data packets with only 2 repairs: nothing recoverable.
  std::vector<Packet> delivered = {window[3], window[4], window[5]};
  FecDecoder decoder;
  std::vector<Packet> out = decoder.process(std::move(delivered));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(decoder.stats().windows_unrecoverable, 1u);
  EXPECT_EQ(decoder.stats().packets_recovered, 0u);
}

// --- MDS recovery: randomized large windows vs a reference solver -------

// The reference recovers the missing symbols with its OWN Gaussian
// elimination built on ref_mul (no shared field code), from the same
// surviving data + repair symbols the decoder under test sees.
std::vector<std::vector<std::uint8_t>> reference_recover(
    const std::vector<std::vector<std::uint8_t>>& data_symbols,
    const std::vector<int>& missing,
    const std::vector<std::pair<int, std::vector<std::uint8_t>>>& repairs,
    FecScheme scheme) {
  const std::size_t e = missing.size();
  const std::size_t len = data_symbols[0].size();
  auto coeff = [&](int r, int i) -> std::uint8_t {
    if (scheme == FecScheme::kXorParity) return 1;
    return fec_cauchy_coefficient(r, i);
  };
  // rhs_r = repair_r - sum over PRESENT data of c(r,i)*data_i.
  std::vector<std::vector<std::uint8_t>> rhs;
  std::vector<std::vector<std::uint8_t>> a;
  for (std::size_t r = 0; r < e; ++r) {
    std::vector<std::uint8_t> b = repairs[r].second;
    for (int i = 0; i < static_cast<int>(data_symbols.size()); ++i) {
      if (std::find(missing.begin(), missing.end(), i) != missing.end()) {
        continue;
      }
      for (std::size_t t = 0; t < len; ++t) {
        b[t] ^= ref_mul(data_symbols[static_cast<std::size_t>(i)][t],
                        coeff(repairs[r].first, i));
      }
    }
    rhs.push_back(std::move(b));
    std::vector<std::uint8_t> row(e);
    for (std::size_t t = 0; t < e; ++t) {
      row[t] = coeff(repairs[r].first, missing[t]);
    }
    a.push_back(std::move(row));
  }
  // Plain Gauss-Jordan with ref_mul only.
  auto ref_inv = [&](std::uint8_t x) -> std::uint8_t {
    for (int y = 1; y < 256; ++y) {
      if (ref_mul(x, static_cast<std::uint8_t>(y)) == 1) {
        return static_cast<std::uint8_t>(y);
      }
    }
    ADD_FAILURE() << "no inverse for " << static_cast<int>(x);
    return 0;
  };
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && a[pivot][col] == 0) ++pivot;
    EXPECT_LT(pivot, e) << "reference matrix singular";
    std::swap(a[col], a[pivot]);
    std::swap(rhs[col], rhs[pivot]);
    const std::uint8_t inv = ref_inv(a[col][col]);
    for (std::size_t t = 0; t < e; ++t) a[col][t] = ref_mul(a[col][t], inv);
    for (std::size_t t = 0; t < len; ++t) {
      rhs[col][t] = ref_mul(rhs[col][t], inv);
    }
    for (std::size_t r = 0; r < e; ++r) {
      if (r == col || a[r][col] == 0) continue;
      const std::uint8_t c = a[r][col];
      for (std::size_t t = 0; t < e; ++t) {
        a[r][t] = static_cast<std::uint8_t>(a[r][t] ^ ref_mul(c, a[col][t]));
      }
      for (std::size_t t = 0; t < len; ++t) {
        rhs[r][t] = static_cast<std::uint8_t>(rhs[r][t] ^
                                              ref_mul(c, rhs[col][t]));
      }
    }
  }
  return rhs;
}

TEST(FecRecovery, RandomizedKOfNMatchesReferenceSolver) {
  Pcg32 rng(2026, 4);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng.next_below(kMaxFecK));
    const int m = 1 + static_cast<int>(rng.next_below(kMaxFecM));
    FecConfig config;
    config.k = k;
    config.m = m;
    FecEncoder encoder(config);
    std::vector<Packet> window =
        make_media_packets(k, rng, static_cast<std::uint16_t>(
                                       rng.next_u32() & 0xFFFF));
    std::vector<std::string> original;
    for (const Packet& p : window) original.push_back(packet_key(p));
    ASSERT_EQ(encoder.protect(&window), m);

    // Symbols exactly as the encoder framed them, for the reference.
    std::size_t symbol_len = 0;
    for (int i = 0; i < k; ++i) {
      symbol_len = std::max(symbol_len, window[static_cast<std::size_t>(
                                            i)].wire_size() + 2);
    }
    std::vector<std::vector<std::uint8_t>> data_symbols;
    for (int i = 0; i < k; ++i) {
      const std::vector<std::uint8_t> wire = serialize_packet(window[i]);
      std::vector<std::uint8_t> sym;
      sym.reserve(symbol_len);
      sym.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
      sym.push_back(static_cast<std::uint8_t>(wire.size() & 0xFF));
      sym.insert(sym.end(), wire.begin(), wire.end());
      sym.resize(symbol_len, 0);
      data_symbols.push_back(std::move(sym));
    }

    // Lose e <= m random data packets; keep e random repairs.
    const int e = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint32_t>(std::min(k, m))));
    std::vector<int> order(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = k - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.next_below(static_cast<std::uint32_t>(i + 1))]);
    }
    std::vector<int> missing(order.begin(), order.begin() + e);
    std::sort(missing.begin(), missing.end());
    std::vector<int> repair_order(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) repair_order[static_cast<std::size_t>(i)] = i;
    for (int i = m - 1; i > 0; --i) {
      std::swap(repair_order[static_cast<std::size_t>(i)],
                repair_order[rng.next_below(static_cast<std::uint32_t>(i + 1))]);
    }
    std::vector<int> surviving_repairs(repair_order.begin(),
                                       repair_order.begin() + e);
    std::sort(surviving_repairs.begin(), surviving_repairs.end());

    std::vector<Packet> delivered;
    for (int i = 0; i < k; ++i) {
      if (std::find(missing.begin(), missing.end(), i) == missing.end()) {
        delivered.push_back(window[static_cast<std::size_t>(i)]);
      }
    }
    std::vector<std::pair<int, std::vector<std::uint8_t>>> repair_symbols;
    for (int r : surviving_repairs) {
      const Packet& repair = window[static_cast<std::size_t>(k + r)];
      delivered.push_back(repair);
      repair_symbols.emplace_back(
          r, std::vector<std::uint8_t>(
                 repair.payload.begin() +
                     static_cast<std::ptrdiff_t>(kFecRepairHeaderSize),
                 repair.payload.end()));
    }

    FecDecoder decoder;
    std::vector<Packet> out = decoder.process(std::move(delivered));
    ASSERT_EQ(out.size(), static_cast<std::size_t>(k))
        << "trial " << trial << " k=" << k << " m=" << m << " e=" << e;
    for (int i = 0; i < k; ++i) {
      ASSERT_EQ(packet_key(out[static_cast<std::size_t>(i)]),
                original[static_cast<std::size_t>(i)])
          << "trial " << trial;
    }

    // And the decoder's output must equal what the reference solver says
    // the missing symbols were.
    const std::vector<std::vector<std::uint8_t>> ref = reference_recover(
        data_symbols, missing, repair_symbols, config.scheme);
    for (std::size_t t = 0; t < missing.size(); ++t) {
      ASSERT_EQ(ref[t], data_symbols[static_cast<std::size_t>(missing[t])])
          << "reference disagrees with ground truth, trial " << trial;
    }
  }
}

// --- encoder wire behaviour ---------------------------------------------

TEST(FecEncoder, WindowsNeverSpanFramesAndLastWindowIsShort) {
  Pcg32 rng(2026, 5);
  FecConfig config;
  config.k = 4;
  config.m = 2;
  FecEncoder encoder(config);
  std::vector<Packet> packets = make_media_packets(10, rng);
  ASSERT_EQ(encoder.protect(&packets), 6);  // ceil(10/4)=3 windows x m=2
  ASSERT_EQ(packets.size(), 16u);
  EXPECT_EQ(encoder.stats().windows, 3u);
  EXPECT_EQ(encoder.stats().media_packets, 10u);
  // Repair headers: two windows of k=4, one short window of k=2.
  std::vector<int> ks;
  for (std::size_t i = 10; i < packets.size(); ++i) {
    const Packet& repair = packets[i];
    EXPECT_TRUE(repair.is_fec_repair());
    EXPECT_EQ(repair.header.ssrc, packets[0].header.ssrc + 2);
    FecRepairHeader header;
    ASSERT_TRUE(parse_repair_header(repair, &header));
    ks.push_back(header.k);
  }
  EXPECT_EQ(ks, (std::vector<int>{4, 4, 4, 4, 2, 2}));
  // Media marker bit still on the last MEDIA packet, not a repair one.
  EXPECT_TRUE(packets[9].header.marker);
}

TEST(FecEncoder, SetMChangesFutureWindowsAndXorCapsAtOne) {
  Pcg32 rng(2026, 6);
  FecConfig config;
  config.k = 4;
  config.m = 3;
  FecEncoder encoder(config);
  std::vector<Packet> frame1 = make_media_packets(4, rng);
  EXPECT_EQ(encoder.protect(&frame1), 3);
  encoder.set_m(1);
  std::vector<Packet> frame2 = make_media_packets(4, rng);
  EXPECT_EQ(encoder.protect(&frame2), 1);
  encoder.set_m(0);  // disables protection entirely
  std::vector<Packet> frame3 = make_media_packets(4, rng);
  EXPECT_EQ(encoder.protect(&frame3), 0);
  encoder.set_m(99);  // clamped
  EXPECT_EQ(encoder.m(), kMaxFecM);

  FecConfig xor_config;
  xor_config.scheme = FecScheme::kXorParity;
  xor_config.k = 4;
  xor_config.m = 1;
  FecEncoder xor_encoder(xor_config);
  xor_encoder.set_m(5);
  EXPECT_EQ(xor_encoder.m(), 1);
}

// --- hostile repair packets ---------------------------------------------

TEST(FecDecoder, MalformedRepairHeadersAreCountedNotFatal) {
  Pcg32 rng(2026, 7);
  FecConfig config;
  config.k = 3;
  config.m = 1;
  FecEncoder encoder(config);
  std::vector<Packet> window = make_media_packets(3, rng);
  encoder.protect(&window);

  auto expect_invalid = [](Packet repair) {
    FecDecoder decoder;
    std::vector<Packet> out = decoder.process({std::move(repair)});
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(decoder.stats().repair_packets_invalid, 1u);
    EXPECT_EQ(decoder.stats().packets_recovered, 0u);
  };

  Packet repair = window[3];
  {  // k out of bounds
    Packet p = repair;
    p.payload.mutable_data()[1] = kMaxFecK + 1;
    expect_invalid(std::move(p));
  }
  {  // m out of bounds
    Packet p = repair;
    p.payload.mutable_data()[2] = kMaxFecM + 1;
    expect_invalid(std::move(p));
  }
  {  // repair_index >= m
    Packet p = repair;
    p.payload.mutable_data()[3] = p.payload[2];
    expect_invalid(std::move(p));
  }
  {  // unknown scheme
    Packet p = repair;
    p.payload.mutable_data()[0] = 9;
    expect_invalid(std::move(p));
  }
  {  // truncated symbol
    Packet p = repair;
    p.payload.resize(p.payload.size() - 3);
    expect_invalid(std::move(p));
  }
  {  // payload shorter than the fixed header
    Packet p = repair;
    p.payload.resize(4);
    expect_invalid(std::move(p));
  }
}

TEST(FecDecoder, DuplicateRepairPacketsAddNothing) {
  Pcg32 rng(2026, 8);
  FecConfig config;
  config.k = 3;
  config.m = 1;
  FecEncoder encoder(config);
  std::vector<Packet> window = make_media_packets(3, rng);
  encoder.protect(&window);
  const std::string lost_key = packet_key(window[1]);
  // Deliver: packet 0, packet 2, repair, repair (duplicated).
  std::vector<Packet> delivered = {window[0], window[2], window[3],
                                   window[3]};
  FecDecoder decoder;
  std::vector<Packet> out = decoder.process(std::move(delivered));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(packet_key(out[1]), lost_key);
  EXPECT_TRUE(out[1].recovered);
  EXPECT_EQ(decoder.stats().packets_recovered, 1u);
}

TEST(FecDecoder, StaleWindowIdNeverInventsPackets) {
  Pcg32 rng(2026, 9);
  FecConfig config;
  config.k = 2;
  config.m = 1;
  FecEncoder encoder(config);
  std::vector<Packet> window = make_media_packets(2, rng);
  encoder.protect(&window);
  // Repoint the repair's base_sequence far away from any delivered media:
  // both "data packets" of that forged window are missing, which exceeds
  // m=1 and must be unrecoverable — never a fabricated packet.
  Packet stale = window[2];
  stale.payload.mutable_data()[4] = 0xBE;
  stale.payload.mutable_data()[5] = 0xEF;
  FecDecoder decoder;
  std::vector<Packet> out =
      decoder.process({window[0], window[1], std::move(stale)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(decoder.stats().packets_recovered, 0u);
  EXPECT_EQ(decoder.stats().windows_unrecoverable, 1u);
}

// --- pipeline stages -----------------------------------------------------

sim::SessionSpec fec_session_spec(int frames, double loss_rate,
                                  std::uint64_t seed) {
  sim::SessionSpec spec;
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  spec.scheme = sim::SchemeSpec::pbpair(pbpair);
  spec.config.frames = frames;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  spec.source = [seq](int index) { return seq.frame_at(index); };
  spec.make_loss = [loss_rate, seed]() -> std::unique_ptr<net::LossModel> {
    if (loss_rate <= 0.0) return nullptr;
    return std::make_unique<net::BernoulliPacketLoss>(loss_rate, seed);
  };
  return spec;
}

TEST(FecPipeline, RecoversLossesAndReportsNetworkPlr) {
  sim::SessionSpec spec = fec_session_spec(30, 0.25, 77);
  // Small MTU so frames span several packets and windows fill up.
  spec.config.packetizer.mtu = 256;
  FecConfig fec;
  fec.k = 4;
  fec.m = 2;
  spec.config.fec = fec;
  double max_plr = 0.0;
  std::uint32_t cumulative_lost = 0;
  spec.config.on_feedback = [&](int, const ReceiverReport& report,
                                codec::RefreshPolicy&) {
    max_plr = std::max(max_plr, report.fraction_lost_as_double());
    cumulative_lost = report.cumulative_lost;
  };
  sim::StreamSession session(spec.source, spec.scheme, spec.make_loss(),
                             spec.config);
  ASSERT_NE(session.fec_encoder(), nullptr);
  ASSERT_NE(session.fec_decoder(), nullptr);
  session.run_to_end();
  sim::PipelineResult result = session.take_result();
  EXPECT_GT(result.fec_encode.repair_packets, 0u);
  EXPECT_GT(result.fec_decode.packets_recovered, 0u);
  // The feedback loop must keep seeing the NETWORK loss rate even though
  // the decoder-side stream was largely repaired: with 25% Bernoulli drop
  // the RTCP reports keep counting wire losses (fraction_lost is
  // per-interval, so assert the peak and the cumulative count).
  EXPECT_GT(max_plr, 0.10);
  EXPECT_GT(cumulative_lost, 0u);

  // And recovery actually reduced frame loss vs the same run without FEC.
  sim::SessionSpec bare = fec_session_spec(30, 0.25, 77);
  bare.config.packetizer.mtu = 256;
  sim::StreamSession bare_session(bare.source, bare.scheme, bare.make_loss(),
                                  bare.config);
  bare_session.run_to_end();
  sim::PipelineResult bare_result = bare_session.take_result();
  auto lost_frames = [](const sim::PipelineResult& r) {
    int lost = 0;
    for (const sim::FrameTrace& f : r.frames) lost += f.lost ? 1 : 0;
    return lost;
  };
  EXPECT_LT(lost_frames(result), lost_frames(bare_result));
}

std::string serialize(const std::vector<sim::PipelineResult>& results) {
  std::string out;
  char buf[256];
  for (const sim::PipelineResult& r : results) {
    std::snprintf(buf, sizeof(buf), "total %llu %.17g %llu %llu %llu\n",
                  static_cast<unsigned long long>(r.total_bytes),
                  r.avg_psnr_db,
                  static_cast<unsigned long long>(r.total_bad_pixels),
                  static_cast<unsigned long long>(r.total_intra_mbs),
                  static_cast<unsigned long long>(r.concealed_mbs));
    out += buf;
    std::snprintf(buf, sizeof(buf), "energy %.17g %.17g\n",
                  r.encode_energy.total_j(), r.tx_energy_j);
    out += buf;
    for (const sim::FrameTrace& f : r.frames) {
      std::snprintf(buf, sizeof(buf), "f %d %zu %d %d %.17g %llu %d %d\n",
                    f.index, f.bytes, f.intra_mbs, f.lost ? 1 : 0, f.psnr_db,
                    static_cast<unsigned long long>(f.bad_pixels),
                    f.fec_repair_sent, f.fec_recovered);
      out += buf;
    }
  }
  return out;
}

// FEC "off" must mean OFF: config.fec = m=0 runs no FEC stage and gives
// byte-identical results to config.fec unset, at 1, 2 and 8 worker
// threads (DESIGN.md §12.5 — the all-off config is free).
TEST(FecPipeline, DisabledFecIsByteIdenticalToNoStage) {
  auto make_specs = [](bool with_disabled_fec) {
    std::vector<sim::SessionSpec> specs;
    for (int i = 0; i < 4; ++i) {
      sim::SessionSpec spec = fec_session_spec(
          6, 0.15, 2005 + static_cast<std::uint64_t>(i));
      if (with_disabled_fec) {
        FecConfig fec;
        fec.m = 0;  // enabled() == false: no FEC stage, no behavior change
        spec.config.fec = fec;
      }
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  sim::SessionManagerOptions reference_options;
  reference_options.threads = 1;
  const std::string reference = serialize(
      sim::SessionManager(make_specs(false)).run(reference_options));

  for (int threads : {1, 2, 8}) {
    sim::SessionManagerOptions options;
    options.threads = threads;
    const std::string with_disabled = serialize(
        sim::SessionManager(make_specs(true)).run(options));
    EXPECT_EQ(with_disabled, reference) << "threads=" << threads;
  }

  // No FEC stage runs, stated directly.
  sim::SessionSpec spec = fec_session_spec(2, 0.0, 1);
  FecConfig fec;
  fec.m = 0;
  spec.config.fec = fec;
  sim::StreamSession session(spec.source, spec.scheme, nullptr, spec.config);
  EXPECT_EQ(session.fec_encoder(), nullptr);
  EXPECT_EQ(session.fec_decoder(), nullptr);
}

// --- joint Intra_Th / FEC-rate controller -------------------------------

TEST(JointController, ResidualPlrIsSoundAtTheEdges) {
  using core::JointPowerAwareController;
  // m = 0 is exactly the raw loss rate.
  EXPECT_DOUBLE_EQ(JointPowerAwareController::residual_plr(0.1, 8, 0), 0.1);
  EXPECT_DOUBLE_EQ(JointPowerAwareController::residual_plr(0.0, 8, 3), 0.0);
  EXPECT_DOUBLE_EQ(JointPowerAwareController::residual_plr(1.0, 8, 3), 1.0);
  // More repair monotonically reduces residual loss.
  double prev = 1.0;
  for (int m = 0; m <= 8; ++m) {
    const double r = JointPowerAwareController::residual_plr(0.2, 8, m);
    EXPECT_LE(r, prev) << "m=" << m;
    EXPECT_GE(r, 0.0);
    prev = r;
  }
  // And FEC always helps: residual < raw for any m >= 1.
  EXPECT_LT(JointPowerAwareController::residual_plr(0.2, 8, 1), 0.2);
}

TEST(JointController, PlrPicksSmallestSufficientM) {
  core::JointAdaptationConfig config;
  config.fec_k = 8;
  config.target_residual_plr = 0.02;
  core::JointPowerAwareController controller(config);

  controller.on_plr_update(0.0);
  EXPECT_EQ(controller.fec_m(), 0);  // lossless: no repair overhead

  controller.on_plr_update(0.05);
  const int m_low = controller.fec_m();
  controller.on_plr_update(0.30);
  const int m_high = controller.fec_m();
  EXPECT_GT(m_low, 0);
  EXPECT_GE(m_high, m_low);
  // The chosen m actually meets the target (or is the cap).
  EXPECT_LE(core::JointPowerAwareController::residual_plr(0.05, 8, m_low),
            config.target_residual_plr);

  // Intra_Th reacts to the RESIDUAL loss, so with FEC soaking up the
  // loss it stays near base even when the raw PLR is well above base_plr.
  EXPECT_NEAR(controller.intra_th(),
              config.base_intra_th + config.plr_coupling * config.base_plr -
                  config.plr_coupling *
                      core::JointPowerAwareController::residual_plr(
                          0.30, 8, m_high),
              1e-12);
}

TEST(JointController, EnergyPressureShedsFecBeforeIntraTh) {
  core::JointAdaptationConfig config;
  config.fec_k = 8;
  config.energy_budget_j = 100.0;
  config.planned_frames = 100;
  core::JointPowerAwareController controller(config);
  controller.on_plr_update(0.30);  // heavy loss: wants several repairs
  const int m_before = controller.fec_m();
  ASSERT_GT(m_before, 1);
  const double intra_before = controller.intra_th();

  // Projected 2 J/frame on a 1 J/frame budget: over budget.
  controller.on_energy_update(/*spent_j=*/20.0, /*frames_done=*/10);
  EXPECT_EQ(controller.fec_m(), m_before - 1);
  EXPECT_DOUBLE_EQ(controller.intra_th(), intra_before);  // FEC shed first

  // Keep pressing until FEC is exhausted; only then Intra_Th climbs.
  for (int i = 0; i < 16 && controller.fec_m() > 0; ++i) {
    controller.on_energy_update(20.0, 10);
  }
  EXPECT_EQ(controller.fec_m(), 0);
  const double intra_at_zero_fec = controller.intra_th();
  controller.on_energy_update(20.0, 10);
  EXPECT_GT(controller.intra_th(), intra_at_zero_fec);

  // Comfortable headroom restores protection before relaxing intra.
  controller.on_energy_update(/*spent_j=*/2.0, /*frames_done=*/10);
  EXPECT_GT(controller.fec_m_cap(), 0);
}

}  // namespace
}  // namespace pbpair::net
