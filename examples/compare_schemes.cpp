// Side-by-side comparison of all five error-resilience schemes on a chosen
// clip and loss rate — a configurable miniature of the paper's Figure 5.
//
//   ./examples/compare_schemes [akiyo|foreman|garden] [plr] [frames]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/loss_model.h"
#include "sim/pipeline.h"
#include "sim/report.h"

using namespace pbpair;

int main(int argc, char** argv) {
  video::SequenceKind kind = video::SequenceKind::kForemanLike;
  if (argc > 1) {
    if (std::strcmp(argv[1], "akiyo") == 0) {
      kind = video::SequenceKind::kAkiyoLike;
    } else if (std::strcmp(argv[1], "garden") == 0) {
      kind = video::SequenceKind::kGardenLike;
    }
  }
  const double plr = argc > 2 ? std::atof(argv[2]) : 0.10;
  const int frames = argc > 3 ? std::atoi(argv[3]) : 120;

  video::SyntheticSequence sequence = video::make_paper_sequence(kind);
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;

  core::PbpairConfig pbpair;
  pbpair.plr = plr;
  // Size-match PBPAIR to PGOP-3 like the paper (§4.2).
  sim::PipelineResult pgop_clean =
      sim::run_pipeline(sequence, sim::SchemeSpec::pgop(3), nullptr, config);
  pbpair.intra_th = sim::calibrate_intra_th(
      {{[&sequence](int i) { return sequence.frame_at(i); },
        pgop_clean.total_bytes}},
      pbpair, config)[0];

  std::printf("clip %s, PLR %.0f%%, %d frames, Intra_Th %.3f\n\n",
              video::sequence_kind_name(kind), plr * 100.0, frames,
              pbpair.intra_th);

  sim::Table table({"scheme", "PSNR_dB", "bad_px_M", "size_KB", "encode_J",
                    "tx_J", "intra_MBs", "ME_runs"});
  for (const sim::SchemeSpec& scheme :
       {sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair),
        sim::SchemeSpec::pgop(3), sim::SchemeSpec::gop(3),
        sim::SchemeSpec::air(24)}) {
    net::UniformFrameLoss loss(plr, 2005);
    sim::PipelineResult r = sim::run_pipeline(sequence, scheme, &loss, config);
    table.add_row(
        {scheme.label(), sim::format("%.2f", r.avg_psnr_db),
         sim::format("%.3f", static_cast<double>(r.total_bad_pixels) / 1e6),
         sim::format("%.1f", static_cast<double>(r.total_bytes) / 1024.0),
         sim::format("%.3f", r.encode_energy.total_j()),
         sim::format("%.3f", r.tx_energy_j),
         sim::format("%llu", static_cast<unsigned long long>(r.total_intra_mbs)),
         sim::format("%llu", static_cast<unsigned long long>(
                                 r.encoder_ops.me_invocations))});
  }
  table.print();
  return 0;
}
