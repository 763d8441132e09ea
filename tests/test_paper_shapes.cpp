// Regression locks on the paper's headline shapes.
//
// The benches print the full tables; these tests pin the *orderings* the
// reproduction stands on, at reduced frame counts so they stay fast. If a
// codec or policy change breaks one of these, the repository no longer
// reproduces the paper — that should fail CI, not be discovered by eye.
#include <gtest/gtest.h>

#include "net/loss_model.h"
#include "sim/pipeline.h"

namespace pbpair {
namespace {

struct Fig5Setup {
  sim::PipelineResult no, pbpair, pgop, gop, air;
};

/// Runs the Figure 5 experiment (size-calibrated, PLR 10%) on one clip at
/// `frames` frames with the paper's full-search encoder.
Fig5Setup run_fig5(video::SequenceKind kind, int frames) {
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;
  video::SyntheticSequence seq = video::make_paper_sequence(kind);

  sim::PipelineResult pgop_clean =
      sim::run_pipeline(seq, sim::SchemeSpec::pgop(3), nullptr, config);
  core::PbpairConfig pc;
  pc.plr = 0.10;
  pc.intra_th = sim::calibrate_intra_th(
      {{[&seq](int i) { return seq.frame_at(i); }, pgop_clean.total_bytes}},
      pc, config)[0];

  auto run = [&](const sim::SchemeSpec& scheme) {
    net::UniformFrameLoss loss(0.10, 2005);
    return sim::run_pipeline(seq, scheme, &loss, config);
  };
  Fig5Setup out;
  out.no = run(sim::SchemeSpec::no_resilience());
  out.pbpair = run(sim::SchemeSpec::pbpair(pc));
  out.pgop = run(sim::SchemeSpec::pgop(3));
  out.gop = run(sim::SchemeSpec::gop(3));
  out.air = run(sim::SchemeSpec::air(24));
  return out;
}

class PaperShapes : public ::testing::Test {
 protected:
  // One shared run per suite: these assertions all read the same data.
  static const Fig5Setup& foreman() {
    static const Fig5Setup setup =
        run_fig5(video::SequenceKind::kForemanLike, 60);
    return setup;
  }
};

TEST_F(PaperShapes, Fig5dEnergyOrdering) {
  // The paper's central result: PBPAIR < PGOP, GOP < AIR ~= NO.
  const Fig5Setup& s = foreman();
  double pbpair = s.pbpair.encode_energy.total_j();
  EXPECT_LT(pbpair, s.pgop.encode_energy.total_j());
  EXPECT_LT(pbpair, s.gop.encode_energy.total_j());
  EXPECT_LT(pbpair, 0.9 * s.air.encode_energy.total_j());
  EXPECT_LT(s.pgop.encode_energy.total_j(),
            0.95 * s.air.encode_energy.total_j());
}

TEST_F(PaperShapes, AirEnergyEqualsNoEnergy) {
  // "AIR consumes a similar amount of the encoding energy [as] without any
  // error resilient scheme since AIR decides the encoding mode after
  // motion estimation" (§4.2).
  const Fig5Setup& s = foreman();
  EXPECT_NEAR(s.air.encode_energy.total_j() / s.no.encode_energy.total_j(),
              1.0, 0.08);
  EXPECT_EQ(s.air.encoder_ops.me_invocations, s.no.encoder_ops.me_invocations);
}

TEST_F(PaperShapes, Fig5cSizesAreCalibrated) {
  const Fig5Setup& s = foreman();
  double ratio = static_cast<double>(s.pbpair.total_bytes) /
                 static_cast<double>(s.pgop.total_bytes);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST_F(PaperShapes, Fig5abRefreshSchemesBeatNoUnderLoss) {
  const Fig5Setup& s = foreman();
  for (const sim::PipelineResult* r : {&s.pbpair, &s.pgop, &s.gop}) {
    EXPECT_GT(r->avg_psnr_db, s.no.avg_psnr_db + 2.0);
    EXPECT_LT(r->total_bad_pixels * 3, s.no.total_bad_pixels);
  }
  // PBPAIR's quality must tie the best baseline (within half a dB).
  double best_baseline =
      std::max({s.pgop.avg_psnr_db, s.gop.avg_psnr_db, s.air.avg_psnr_db});
  EXPECT_GT(s.pbpair.avg_psnr_db, best_baseline - 0.5);
}

TEST(PaperShapesFig6, GopCollapsesForAWholeGopAfterIFrameLoss) {
  // e7 of Fig 6: losing a GOP I-frame leaves the decoder without a valid
  // reference until the next one.
  sim::PipelineConfig config;
  config.frames = 30;
  config.encoder.qp = 10;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  net::ScriptedFrameLoss loss({9});  // GOP-8's second I-frame
  sim::PipelineResult gop = sim::run_pipeline(seq, sim::SchemeSpec::gop(8),
                                              &loss, config);
  double before = gop.frames[8].psnr_db;
  // Every frame until the next I-frame (18) stays degraded...
  for (int f = 9; f < 18; ++f) {
    EXPECT_LT(gop.frames[f].psnr_db, before - 2.0) << "frame " << f;
  }
  // ...and the I-frame at 18 snaps back.
  EXPECT_GT(gop.frames[18].psnr_db, before - 2.0);
}

TEST(PaperShapesFig6, GopBitstreamIsBurstyMbSchemesAreNot) {
  sim::PipelineConfig config;
  config.frames = 30;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  auto burstiness = [&](const sim::SchemeSpec& scheme) {
    sim::PipelineResult r = sim::run_pipeline(seq, scheme, nullptr, config);
    std::uint64_t sum = 0;
    std::size_t max_bytes = 0;
    for (const sim::FrameTrace& f : r.frames) {
      if (f.index == 0) continue;
      sum += f.bytes;
      max_bytes = std::max(max_bytes, f.bytes);
    }
    return static_cast<double>(max_bytes) * (config.frames - 1) / sum;
  };
  core::PbpairConfig pc;
  pc.intra_th = 0.95;
  pc.plr = 0.1;
  double gop = burstiness(sim::SchemeSpec::gop(8));
  double pgop = burstiness(sim::SchemeSpec::pgop(1));
  double pbpair = burstiness(sim::SchemeSpec::pbpair(pc));
  EXPECT_GT(gop, 1.7 * pgop);
  EXPECT_GT(gop, 1.7 * pbpair);
}

TEST(PaperShapesSec43, TradeoffMonotonicities) {
  // §4.3 in three assertions: intra count rises with Intra_Th; size rises
  // with it; encode energy falls with it.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  sim::PipelineConfig config;
  config.frames = 25;
  config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;
  std::uint64_t prev_intra = 0, prev_size = 0;
  double prev_energy = 1e9;
  for (double th : {0.5, 0.95, 1.0}) {
    core::PbpairConfig pc;
    pc.intra_th = th;
    pc.plr = 0.10;
    sim::PipelineResult r = sim::run_pipeline(
        seq, sim::SchemeSpec::pbpair(pc), nullptr, config);
    EXPECT_GE(r.total_intra_mbs, prev_intra) << th;
    EXPECT_GE(r.total_bytes, prev_size) << th;
    EXPECT_LE(r.encode_energy.total_j(), prev_energy) << th;
    prev_intra = r.total_intra_mbs;
    prev_size = r.total_bytes;
    prev_energy = r.encode_energy.total_j();
  }
}

}  // namespace
}  // namespace pbpair
