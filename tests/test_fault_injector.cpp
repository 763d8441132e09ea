// Tests for the adversarial fault-injection stage (net/fault_injector.h):
// deterministic replay, wire-level honesty (unparseable damage drops the
// packet), stats bookkeeping, pipeline integration with the
// byte-identity guarantee when disabled, and the seeded fuzz harness.
#include <gtest/gtest.h>

#include <optional>

#include "codec/encoder.h"
#include "core/pbpair_policy.h"
#include "net/fault_injector.h"
#include "net/loss_model.h"
#include "net/packetizer.h"
#include "sim/fuzzer.h"
#include "sim/pipeline.h"
#include "video/sequence.h"

namespace pbpair::net {
namespace {

std::vector<Packet> make_stream(int count, std::size_t payload_size = 200) {
  std::vector<Packet> packets;
  for (int i = 0; i < count; ++i) {
    Packet p;
    p.header.sequence = static_cast<std::uint16_t>(i);
    p.header.timestamp = 42;
    p.header.ssrc = 0x50425041;
    p.header.frame_type = 1;
    p.header.qp = 10;
    p.header.first_gob = static_cast<std::uint8_t>(i);
    p.header.num_gobs = 1;
    p.payload.assign(payload_size, static_cast<std::uint8_t>(i * 3 + 1));
    packets.push_back(std::move(p));
  }
  return packets;
}

std::vector<std::uint8_t> flatten(const std::vector<Packet>& packets) {
  std::vector<std::uint8_t> bytes;
  for (const Packet& p : packets) {
    const std::vector<std::uint8_t> wire = serialize_packet(p);
    bytes.insert(bytes.end(), wire.begin(), wire.end());
  }
  return bytes;
}

TEST(FaultInjectorConfig, EnabledOnlyWithNonzeroProbability) {
  FaultInjectorConfig config;
  EXPECT_FALSE(config.enabled());
  config.max_bit_flips = 3;  // knob alone does not enable
  EXPECT_FALSE(config.enabled());
  config.p_reorder = 0.01;
  EXPECT_TRUE(config.enabled());
}

TEST(FaultInjector, SameSeedSameDamage) {
  FaultInjectorConfig config;
  config.seed = 7;
  config.p_bit_flip = 0.5;
  config.p_truncate = 0.2;
  config.p_header_corrupt = 0.2;
  config.p_duplicate = 0.2;
  config.p_reorder = 0.3;

  FaultInjector a(config);
  FaultInjector b(config);
  auto out_a = a.apply(make_stream(40));
  auto out_b = b.apply(make_stream(40));
  EXPECT_EQ(flatten(out_a), flatten(out_b));
  EXPECT_EQ(a.stats().bits_flipped, b.stats().bits_flipped);
  EXPECT_EQ(a.stats().packets_dropped_unparseable,
            b.stats().packets_dropped_unparseable);
}

TEST(FaultInjector, ResetReplaysIdentically) {
  FaultInjectorConfig config;
  config.seed = 9;
  config.p_bit_flip = 0.4;
  config.p_header_corrupt = 0.3;
  FaultInjector injector(config);
  const auto first = flatten(injector.apply(make_stream(30)));
  const std::uint64_t first_flips = injector.stats().bits_flipped;
  injector.reset();
  EXPECT_EQ(injector.stats().packets_seen, 0u);
  const auto second = flatten(injector.apply(make_stream(30)));
  EXPECT_EQ(first, second);
  EXPECT_EQ(injector.stats().bits_flipped, first_flips);
}

TEST(FaultInjector, DifferentSeedsDamageDifferently) {
  FaultInjectorConfig config;
  config.p_bit_flip = 0.5;
  config.seed = 1;
  FaultInjector a(config);
  config.seed = 2;
  FaultInjector b(config);
  EXPECT_NE(flatten(a.apply(make_stream(40))),
            flatten(b.apply(make_stream(40))));
}

TEST(FaultInjector, BitFlipsStayInPayload) {
  // Pure payload bit-flips must never touch the 16 header bytes, so no
  // packet can become unparseable and headers survive verbatim.
  FaultInjectorConfig config;
  config.p_bit_flip = 1.0;
  FaultInjector injector(config);
  auto out = injector.apply(make_stream(25));
  ASSERT_EQ(out.size(), 25u);
  EXPECT_GT(injector.stats().bits_flipped, 0u);
  EXPECT_EQ(injector.stats().packets_dropped_unparseable, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].header.sequence, i);
    EXPECT_EQ(out[i].header.timestamp, 42u);
  }
}

TEST(FaultInjector, TruncationShrinksOrDrops) {
  FaultInjectorConfig config;
  config.p_truncate = 1.0;
  FaultInjector injector(config);
  const auto in = make_stream(50);
  auto out = injector.apply(in);
  EXPECT_EQ(injector.stats().payloads_truncated, 50u);
  // A cut inside the 16 header bytes destroys the framing => drop.
  EXPECT_EQ(out.size() + injector.stats().packets_dropped_unparseable, 50u);
  for (const Packet& p : out) {
    EXPECT_LT(p.payload.size(), in[0].payload.size());
  }
}

TEST(FaultInjector, DuplicationDeliversTwice) {
  FaultInjectorConfig config;
  config.p_duplicate = 1.0;
  FaultInjector injector(config);
  auto out = injector.apply(make_stream(10));
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(injector.stats().packets_duplicated, 10u);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    EXPECT_EQ(serialize_packet(out[i]), serialize_packet(out[i + 1]));
  }
}

TEST(FaultInjector, ReorderSwapsNeighbours) {
  FaultInjectorConfig config;
  config.p_reorder = 1.0;
  FaultInjector injector(config);
  auto out = injector.apply(make_stream(6));
  ASSERT_EQ(out.size(), 6u);
  EXPECT_GT(injector.stats().packets_reordered, 0u);
  // Every packet still present exactly once.
  std::vector<int> seen(6, 0);
  for (const Packet& p : out) seen[p.header.sequence] += 1;
  for (int count : seen) EXPECT_EQ(count, 1);
}

// --- pipeline integration ------------------------------------------------

sim::PipelineResult run_with(const std::optional<FaultInjectorConfig>& faults,
                             int frames = 12) {
  video::SyntheticSequence sequence =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.1;
  sim::SchemeSpec scheme = sim::SchemeSpec::pbpair(pbpair);
  UniformFrameLoss loss(0.1, 2005);
  sim::PipelineConfig config;
  config.frames = frames;
  config.faults = faults;
  return sim::run_pipeline(sequence, scheme, &loss, config);
}

std::vector<double> frame_psnrs(const sim::PipelineResult& r) {
  std::vector<double> psnrs;
  for (const sim::FrameTrace& t : r.frames) psnrs.push_back(t.psnr_db);
  return psnrs;
}

TEST(FaultInjectorPipeline, AllZeroConfigIsByteIdenticalToUnset) {
  const sim::PipelineResult base = run_with(std::nullopt);
  const sim::PipelineResult zeroed = run_with(FaultInjectorConfig{});
  EXPECT_EQ(frame_psnrs(base), frame_psnrs(zeroed));
  EXPECT_EQ(base.total_bytes, zeroed.total_bytes);
  EXPECT_EQ(base.total_bad_pixels, zeroed.total_bad_pixels);
  EXPECT_EQ(base.concealed_mbs, zeroed.concealed_mbs);
}

TEST(FaultInjectorPipeline, DamageIsDeterministicAndVisible) {
  FaultInjectorConfig faults;
  faults.seed = 3;
  faults.p_bit_flip = 0.3;
  faults.p_truncate = 0.1;
  faults.p_header_corrupt = 0.1;
  const sim::PipelineResult a = run_with(faults);
  const sim::PipelineResult b = run_with(faults);
  EXPECT_EQ(frame_psnrs(a), frame_psnrs(b));
  EXPECT_EQ(a.total_bad_pixels, b.total_bad_pixels);

  const sim::PipelineResult clean = run_with(std::nullopt);
  // Sender-side stays untouched; receiver-side quality degrades.
  EXPECT_EQ(a.total_bytes, clean.total_bytes);
  EXPECT_GT(a.total_bad_pixels, clean.total_bad_pixels);
}

// --- fuzz harness --------------------------------------------------------

TEST(Fuzzer, SmokeRunCoversAllTargets) {
  sim::FuzzOptions options;
  options.seed = 11;
  options.iterations = 8;
  sim::FuzzReport report;
  ASSERT_TRUE(sim::run_fuzz(options, &report));
  EXPECT_EQ(report.total_iterations, 8u * 8u);
  EXPECT_EQ(report.iterations_per_target.size(), 8u);
  for (const auto& [name, count] : report.iterations_per_target) {
    EXPECT_EQ(count, 8u) << name;
  }
  // Hostile inputs actually exercised the paths: damage got concealed and
  // the parsers rejected garbage.
  EXPECT_GT(report.decoder_concealed_mbs, 0u);
  EXPECT_GT(report.parse_rejects, 0u);
}

TEST(Fuzzer, SingleTargetRunsOnlyThatTarget) {
  sim::FuzzOptions options;
  options.iterations = 5;
  options.target = "packet";
  sim::FuzzReport report;
  ASSERT_TRUE(sim::run_fuzz(options, &report));
  EXPECT_EQ(report.total_iterations, 5u);
  ASSERT_EQ(report.iterations_per_target.size(), 1u);
  EXPECT_EQ(report.iterations_per_target.count("packet"), 1u);
}

TEST(Fuzzer, UnknownTargetIsRejected) {
  sim::FuzzOptions options;
  options.target = "nonsense";
  sim::FuzzReport report;
  EXPECT_FALSE(sim::run_fuzz(options, &report));
  EXPECT_EQ(report.total_iterations, 0u);
}

}  // namespace
}  // namespace pbpair::net
