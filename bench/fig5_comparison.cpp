// Figure 5 — comparison between PBPAIR and existing techniques at PLR 10%:
//   (a) average PSNR            (b) number of bad pixels
//   (c) encoded file size       (d) encoding energy consumption (iPAQ)
// over the akiyo/foreman/garden-like 300-frame QCIF clips, with PBPAIR's
// Intra_Th calibrated per clip to match PGOP-3's compressed size (§4.2).
#include <cstdio>

#include "bench_common.h"
#include "net/loss_model.h"

using namespace pbpair;

int main() {
  bench::enable_observability("fig5_comparison");
  const int frames = bench::bench_frames();
  const double plr = 0.10;
  std::printf(
      "=== Figure 5: PBPAIR vs existing error-resilient coding "
      "(PLR = 10%%, %d QCIF frames/clip) ===\n\n",
      frames);

  struct Row {
    std::string scheme;
    double psnr[3];
    double bad_pixels_m[3];
    double size_kb[3];
    double energy_j[3];
  };
  std::vector<Row> rows;

  const sim::PipelineConfig config = bench::paper_pipeline_config(frames);

  // Phase 1: the PGOP-3 lossless size targets as one sweep, then the three
  // clips' Intra_Th calibration bisections (§4.2) in lockstep.
  std::vector<sim::SweepTask> size_tasks;
  for (video::SequenceKind kind : bench::kPaperClips) {
    // Size target: PGOP-3 on a lossless channel (compression comparison).
    size_tasks.push_back(
        bench::clip_task(kind, sim::SchemeSpec::pgop(3), config));
  }
  const std::vector<sim::PipelineResult> pgop_clean =
      sim::run_parallel_sweep(size_tasks);
  std::vector<sim::SizeTarget> targets;
  for (int s = 0; s < 3; ++s) {
    targets.push_back({bench::clip_source(bench::kPaperClips[s], frames),
                       pgop_clean[s].total_bytes});
  }
  const std::vector<double> intra_ths =
      bench::calibrate_pbpair_to_size(targets, plr);
  for (int s = 0; s < 3; ++s) {
    std::printf("calibrated Intra_Th for %s: %.4f\n",
                video::sequence_kind_name(bench::kPaperClips[s]),
                intra_ths[s]);
  }

  // Phase 2: all 15 (clip, scheme) measurement runs in one sweep; every
  // task builds its own loss model with the same seed, so the loss
  // pattern — and the whole report — is identical to the serial run.
  std::vector<sim::SweepTask> tasks;
  for (int s = 0; s < 3; ++s) {
    video::SequenceKind kind = bench::kPaperClips[s];
    core::PbpairConfig pbpair;
    pbpair.intra_th = intra_ths[s];
    pbpair.plr = plr;
    std::vector<sim::SchemeSpec> schemes = {
        sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair),
        sim::SchemeSpec::pgop(3), sim::SchemeSpec::gop(3),
        sim::SchemeSpec::air(24)};
    for (const sim::SchemeSpec& scheme : schemes) {
      if (s == 0) rows.push_back(Row{scheme.label(), {}, {}, {}, {}});
      tasks.push_back(bench::clip_task(kind, scheme, config, [plr] {
        // Identical loss pattern for every scheme (same seed).
        return std::make_unique<net::UniformFrameLoss>(plr, /*seed=*/2005);
      }));
    }
  }
  std::vector<sim::PipelineResult> results = sim::run_parallel_sweep(tasks);
  for (std::size_t t = 0; t < results.size(); ++t) {
    const sim::PipelineResult& r = results[t];
    std::size_t s = t / rows.size();
    std::size_t i = t % rows.size();
    rows[i].psnr[s] = r.avg_psnr_db;
    rows[i].bad_pixels_m[s] = static_cast<double>(r.total_bad_pixels) / 1e6;
    rows[i].size_kb[s] = static_cast<double>(r.total_bytes) / 1024.0;
    rows[i].energy_j[s] = r.encode_energy.total_j();
  }
  std::printf("\n");

  std::string panels_json;
  auto print_panel = [&rows, &panels_json](const char* title,
                                           const char* csv_name, auto metric,
                                           const char* fmt) {
    std::printf("%s\n", title);
    sim::Table table({"scheme", "foreman", "akiyo", "garden"});
    for (const Row& row : rows) {
      table.add_row({row.scheme, sim::format(fmt, metric(row, 0)),
                     sim::format(fmt, metric(row, 1)),
                     sim::format(fmt, metric(row, 2))});
    }
    table.print();
    bench::maybe_write_csv(table, csv_name);
    if (!panels_json.empty()) panels_json += ",\n    ";
    panels_json += sim::format("\"%s\": ", csv_name) +
                   bench::table_to_json(table);
    std::printf("\n");
  };

  print_panel("--- Fig 5(a): average PSNR (dB), PLR 10% ---", "fig5a_psnr",
              [](const Row& r, int s) { return r.psnr[s]; }, "%.2f");
  print_panel("--- Fig 5(b): number of bad pixels (millions), PLR 10% ---",
              "fig5b_bad_pixels",
              [](const Row& r, int s) { return r.bad_pixels_m[s]; }, "%.3f");
  print_panel("--- Fig 5(c): encoded file size (KB) ---", "fig5c_size",
              [](const Row& r, int s) { return r.size_kb[s]; }, "%.1f");
  print_panel("--- Fig 5(d): encoding energy consumption (J, iPAQ model) ---",
              "fig5d_energy",
              [](const Row& r, int s) { return r.energy_j[s]; }, "%.3f");

  std::printf(
      "expected shape (paper): PBPAIR matches the baselines' PSNR and size\n"
      "while consuming the least encoding energy; AIR's energy ~= NO's\n"
      "because AIR decides modes after motion estimation.\n");

  bench::write_json_report(
      "fig5",
      sim::format("\"frames\": %d,\n  \"plr\": %.2f,\n  \"panels\": {\n    ",
                  frames, plr) +
          panels_json + "\n  }");
  return 0;
}
