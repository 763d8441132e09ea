// Tests for the extension features: SSIM, deblocking, and packet-level
// loss with fragmentation.
#include <gtest/gtest.h>

#include "codec/deblock.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "net/loss_model.h"
#include "sim/pipeline.h"
#include "video/metrics.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

// --- SSIM ---

TEST(Ssim, IdenticalFramesScoreOne) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame f = seq.frame_at(3);
  EXPECT_DOUBLE_EQ(video::ssim_luma(f, f), 1.0);
}

TEST(Ssim, DegradesWithDistortion) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame original = seq.frame_at(0);
  video::YuvFrame slightly = original;
  video::YuvFrame heavily = original;
  for (int y = 0; y < 144; ++y) {
    for (int x = 0; x < 176; ++x) {
      int v = original.y().at(x, y);
      slightly.y().set(x, y, common::clamp_pixel(v + ((x + y) % 2 ? 2 : -2)));
      heavily.y().set(x, y, common::clamp_pixel(v + ((x + y) % 2 ? 25 : -25)));
    }
  }
  double s_slight = video::ssim_luma(original, slightly);
  double s_heavy = video::ssim_luma(original, heavily);
  EXPECT_LT(s_heavy, s_slight);
  EXPECT_LT(s_slight, 1.0);
  EXPECT_GT(s_heavy, -1.0);
}

TEST(Ssim, StructuralDamageHurtsMoreThanBrightnessShift) {
  // SSIM's selling point vs PSNR: a uniform brightness shift (structure
  // preserved) scores better than structured noise at equal MSE.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  video::YuvFrame original = seq.frame_at(0);
  video::YuvFrame shifted = original;
  video::YuvFrame scrambled = original;
  common::Pcg32 rng(5);
  for (int y = 0; y < 144; ++y) {
    for (int x = 0; x < 176; ++x) {
      int v = original.y().at(x, y);
      shifted.y().set(x, y, common::clamp_pixel(v + 10));
      scrambled.y().set(
          x, y, common::clamp_pixel(v + rng.next_in_range(-17, 17)));
    }
  }
  EXPECT_GT(video::ssim_luma(original, shifted),
            video::ssim_luma(original, scrambled));
}

// --- Deblocking ---

TEST(Deblock, StrengthGrowsWithQp) {
  EXPECT_LE(codec::deblock_strength(1), codec::deblock_strength(10));
  EXPECT_LE(codec::deblock_strength(10), codec::deblock_strength(31));
  EXPECT_GE(codec::deblock_strength(1), 1);
  EXPECT_LE(codec::deblock_strength(31), 12);
}

TEST(Deblock, SmallSeamIsSmoothed) {
  // A small step across the edge (coding noise) gets corrected...
  int delta = codec::deblock_delta(100, 100, 106, 106, /*strength=*/6);
  EXPECT_GT(delta, 0);
}

TEST(Deblock, LargeEdgeIsPreserved) {
  // ...while a large step (a real image edge) is left almost untouched.
  int delta = codec::deblock_delta(100, 100, 200, 200, /*strength=*/6);
  EXPECT_EQ(delta, 0);
}

TEST(Deblock, ReducesBlockSeamEnergy) {
  // Construct a frame of flat 8x8 tiles with alternating levels: the seam
  // gradient must shrink after filtering.
  video::YuvFrame frame(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      bool odd_tile = ((x / 8) + (y / 8)) % 2 != 0;
      frame.y().set(x, y, odd_tile ? 110 : 100);
    }
  }
  auto seam_energy = [&frame]() {
    long long e = 0;
    for (int y = 0; y < 64; ++y) {
      for (int x = 8; x < 64; x += 8) {
        e += std::abs(frame.y().at(x, y) - frame.y().at(x - 1, y));
      }
    }
    return e;
  };
  long long before = seam_energy();
  codec::deblock_frame(frame, /*qp=*/10);
  EXPECT_LT(seam_energy(), before);
}

TEST(Deblock, LockstepHoldsWithFilterEnabled) {
  // The decisive requirement: with deblocking on BOTH sides, decoder and
  // encoder reconstruction stay bit-identical across P-frames.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  codec::NoRefreshPolicy policy;
  codec::EncoderConfig econfig;
  econfig.deblocking = true;
  econfig.qp = 16;  // coarse quantization: the filter has work to do
  codec::Encoder encoder(econfig, &policy);
  codec::DecoderConfig dconfig;
  dconfig.deblocking = true;
  codec::Decoder decoder(dconfig);
  for (int i = 0; i < 5; ++i) {
    codec::EncodedFrame frame = encoder.encode_frame(seq.frame_at(i));
    ASSERT_EQ(decoder.decode_frame(frame), encoder.reconstructed())
        << "frame " << i;
  }
}

TEST(Deblock, ImprovesSsimAtCoarseQp) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  auto avg_ssim = [&seq](bool deblocking) {
    codec::NoRefreshPolicy policy;
    codec::EncoderConfig econfig;
    econfig.qp = 24;
    econfig.deblocking = deblocking;
    codec::Encoder encoder(econfig, &policy);
    codec::DecoderConfig dconfig;
    dconfig.deblocking = deblocking;
    codec::Decoder decoder(dconfig);
    double total = 0;
    for (int i = 0; i < 4; ++i) {
      video::YuvFrame original = seq.frame_at(i);
      total += video::ssim_luma(
          original, decoder.decode_frame(encoder.encode_frame(original)));
    }
    return total / 4;
  };
  EXPECT_GT(avg_ssim(true), avg_ssim(false) - 0.005);
}

// --- Fragmentation under packet loss ---

TEST(Fragmentation, BernoulliLossWithTinyMtuLosesOnlyGobs) {
  // Small MTU forces multi-packet frames; per-packet Bernoulli loss then
  // produces PARTIAL frames — the decoder must decode surviving GOBs and
  // conceal only the missing ones.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  sim::PipelineConfig config;
  config.frames = 25;
  config.packetizer.mtu = 400;
  net::BernoulliPacketLoss loss(0.15, 99);
  sim::PipelineResult r = sim::run_pipeline(
      seq, sim::SchemeSpec::pbpair([] {
        core::PbpairConfig c;
        c.intra_th = 0.9;
        c.plr = 0.15;
        return c;
      }()),
      &loss, config);
  EXPECT_GT(r.channel.packets_sent, 50u);   // fragmentation happened
  EXPECT_GT(r.channel.packets_dropped, 0u);
  EXPECT_GT(r.concealed_mbs, 0u);
  // Partial delivery: concealed MBs must be far fewer than full-frame
  // losses would produce (packets_dropped covers only some GOBs each).
  EXPECT_LT(r.concealed_mbs, r.channel.packets_dropped * 99);
  EXPECT_GT(r.avg_psnr_db, 22.0);
}

TEST(Fragmentation, SmallerMtuMeansMorePacketsSameBytes) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  auto run_with_mtu = [&seq](std::size_t mtu) {
    sim::PipelineConfig config;
    config.frames = 10;
    config.packetizer.mtu = mtu;
    return sim::run_pipeline(seq, sim::SchemeSpec::no_resilience(), nullptr,
                             config);
  };
  sim::PipelineResult big = run_with_mtu(1400);
  sim::PipelineResult small = run_with_mtu(300);
  EXPECT_GT(small.channel.packets_sent, big.channel.packets_sent);
  EXPECT_EQ(small.total_bytes, big.total_bytes);  // same bitstream
  // Wire bytes include per-packet headers: more packets => more overhead.
  EXPECT_GT(small.channel.bytes_sent, big.channel.bytes_sent);
}

}  // namespace
}  // namespace pbpair
