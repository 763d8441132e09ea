// Headline claim (abstract / §5): at matched compressed size, PBPAIR cuts
// encoding energy by 34% / 24% / 17% vs AIR / GOP / PGOP.
//
// This bench reruns the Figure 5 experiment, averages across the three
// clips, and reports the measured savings on BOTH device models (iPAQ
// H5555 and Zaurus SL-5600 — the paper verified on both). Absolute
// percentages depend on the encoder's ME share, so the check is the
// ordering and the AIR ~= NO identity, with the measured factors printed
// next to the paper's.
#include <cstdio>

#include "bench_common.h"
#include "net/loss_model.h"

using namespace pbpair;

int main() {
  const int frames = bench::bench_frames();
  const double plr = 0.10;
  std::printf(
      "=== Headline: encoding-energy savings at matched compressed size "
      "(PLR 10%%, %d frames/clip) ===\n\n",
      frames);

  // Accumulated operation counters per scheme across the three clips; the
  // energy model is evaluated per device at the end (counters are device-
  // independent, so one encode pass covers both PDAs).
  const char* names[] = {"NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24"};
  energy::OpCounters totals[5];
  double size_kb[5] = {};
  double psnr_sum[5] = {};

  for (video::SequenceKind kind : bench::kPaperClips) {
    sim::PipelineConfig config = bench::paper_pipeline_config(frames);
    sim::PipelineResult pgop_clean =
        bench::run_clip(kind, sim::SchemeSpec::pgop(3), nullptr, config);
    const double intra_th = bench::calibrate_pbpair_to_size(
        {{bench::clip_source(kind, frames), pgop_clean.total_bytes}}, plr)[0];
    core::PbpairConfig pbpair;
    pbpair.intra_th = intra_th;
    pbpair.plr = plr;

    sim::SchemeSpec schemes[5] = {
        sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair),
        sim::SchemeSpec::pgop(3), sim::SchemeSpec::gop(3),
        sim::SchemeSpec::air(24)};
    for (int i = 0; i < 5; ++i) {
      net::UniformFrameLoss loss(plr, 2005);
      sim::PipelineResult r = bench::run_clip(kind, schemes[i], &loss, config);
      totals[i] += r.encoder_ops;
      size_kb[i] += static_cast<double>(r.total_bytes) / 1024.0;
      psnr_sum[i] += r.avg_psnr_db;
    }
  }

  for (const energy::DeviceProfile* profile :
       {&energy::ipaq_h5555(), &energy::zaurus_sl5600()}) {
    std::printf("--- device: %s ---\n", profile->name.c_str());
    double total_j[5];
    for (int i = 0; i < 5; ++i) {
      total_j[i] = energy::encode_energy(totals[i], *profile).total_j();
    }
    sim::Table table({"scheme", "size_KB(3 clips)", "avg_PSNR", "encode_J",
                      "PBPAIR_saving"});
    for (int i = 0; i < 5; ++i) {
      double saving = (1.0 - total_j[1] / total_j[i]) * 100.0;
      table.add_row({names[i], sim::format("%.0f", size_kb[i]),
                     sim::format("%.2f", psnr_sum[i] / 3.0),
                     sim::format("%.3f", total_j[i]),
                     i == 1 ? std::string("-")
                            : sim::format("%.1f%%", saving)});
    }
    table.print();
    std::printf(
        "paper reports: vs AIR -34%%, vs GOP -24%%, vs PGOP -17%% "
        "(their full-search H.263 encoder)\n\n");
  }

  std::printf(
      "expected shape: PBPAIR lowest energy; PGOP/GOP between; AIR ~= NO\n"
      "(AIR runs motion estimation for every MB before deciding modes).\n");
  return 0;
}
