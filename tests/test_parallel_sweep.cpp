// Parallel sweep determinism: a fig5-style sweep must produce
// byte-identical reports at thread counts 1, 2, and 8 — per-task loss
// models are seeded deterministically and every run is self-contained, so
// scheduling order cannot leak into results.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/loss_model.h"
#include "sim/parallel_sweep.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

// Serializes every field that reaches a report: per-frame traces, totals,
// op counters, and the derived joules. Doubles are rendered with %.17g so
// any bit difference shows up.
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
    std::snprintf(buf, sizeof(buf), "ops %llu %llu %llu %llu %llu\n",
                  static_cast<unsigned long long>(r.encoder_ops.sad_pixel_ops),
                  static_cast<unsigned long long>(r.encoder_ops.sad_halfpel_ops),
                  static_cast<unsigned long long>(r.encoder_ops.dct_blocks),
                  static_cast<unsigned long long>(r.encoder_ops.quant_coeffs),
                  static_cast<unsigned long long>(r.encoder_ops.bits_written));
    out += buf;
    std::snprintf(buf, sizeof(buf), "energy %.17g %.17g\n",
                  r.encode_energy.total_j(), r.tx_energy_j);
    out += buf;
    for (const sim::FrameTrace& f : r.frames) {
      std::snprintf(buf, sizeof(buf), "f %d %zu %d %d %.17g %llu\n", f.index,
                    f.bytes, f.intra_mbs, f.lost ? 1 : 0, f.psnr_db,
                    static_cast<unsigned long long>(f.bad_pixels));
      out += buf;
    }
  }
  return out;
}

std::vector<sim::SweepTask> fig5_style_tasks(
    const std::vector<video::YuvFrame>& clip) {
  const int frames = static_cast<int>(clip.size());
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.encoder.search.range = 7;

  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  std::vector<sim::SchemeSpec> schemes = {
      sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair),
      sim::SchemeSpec::pgop(3), sim::SchemeSpec::gop(3),
      sim::SchemeSpec::air(24)};

  std::vector<sim::SweepTask> tasks;
  for (const sim::SchemeSpec& scheme : schemes) {
    sim::SweepTask task;
    task.scheme = scheme;
    task.config = config;
    task.source = [&clip](int i) { return clip[static_cast<std::size_t>(i)]; };
    task.make_loss = [] {
      return std::make_unique<net::UniformFrameLoss>(0.10, /*seed=*/2005);
    };
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(ParallelSweep, Fig5StyleSweepByteIdenticalAt1_2_8Threads) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  std::vector<video::YuvFrame> clip;
  for (int i = 0; i < 12; ++i) clip.push_back(seq.frame_at(i));
  std::vector<sim::SweepTask> tasks = fig5_style_tasks(clip);

  std::string baseline;
  for (int threads : {1, 2, 8}) {
    sim::SweepOptions options;
    options.threads = threads;
    std::string report = serialize(sim::run_parallel_sweep(tasks, options));
    if (threads == 1) {
      baseline = report;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(baseline, report) << "thread count " << threads;
    }
  }
}

TEST(ParallelSweep, LosslessTasksAllowNullFactory) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  std::vector<video::YuvFrame> clip;
  for (int i = 0; i < 6; ++i) clip.push_back(seq.frame_at(i));

  sim::SweepTask task;
  task.scheme = sim::SchemeSpec::gop(3);
  task.config.frames = static_cast<int>(clip.size());
  task.source = [&clip](int i) { return clip[static_cast<std::size_t>(i)]; };
  std::vector<sim::PipelineResult> results =
      sim::run_parallel_sweep({task, task}, sim::SweepOptions{2});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].total_bytes, results[1].total_bytes);
  EXPECT_EQ(results[0].channel.packets_dropped, 0u);
}

TEST(ParallelSweep, EmptyTaskListReturnsEmpty) {
  // SessionManager PB_CHECKs a non-empty fleet; the sweep must not build
  // one for zero tasks.
  EXPECT_TRUE(sim::run_parallel_sweep({}).empty());
  EXPECT_TRUE(sim::run_parallel_sweep({}, sim::SweepOptions{8}).empty());
}

}  // namespace
}  // namespace pbpair
