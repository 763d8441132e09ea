// §4.3 — error resiliency vs energy consumption: the operating-point space.
//
// Sweeps (Intra_Th, PLR) and reports intra-MB count, encoded size, encoding
// energy, and transmit energy, demonstrating the paper's trade-off: more
// intra MBs => more robustness and LESS encoding energy (ME skipped) but a
// larger bitstream (more transmit energy). Includes the endpoints the paper
// calls out: Intra_Th = 0 (pure compression efficiency, PBPAIR == NO) and
// Intra_Th = 1 (every MB intra, maximum robustness).
#include <cstdio>

#include "bench_common.h"

using namespace pbpair;

int main() {
  bench::enable_observability("sec43_resiliency_vs_energy");
  const int frames = std::min(bench::bench_frames(), 150);
  const video::SequenceKind kind = video::SequenceKind::kForemanLike;
  sim::PipelineConfig config = bench::paper_pipeline_config(frames);

  std::printf(
      "=== Section 4.3: error resiliency vs energy "
      "(foreman-like, %d frames, lossless channel for size/energy) ===\n\n",
      frames);

  const double intra_ths[] = {0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0};
  const double plrs[] = {0.0, 0.05, 0.10, 0.20, 0.30};

  // The whole (PLR, Intra_Th) grid is independent lossless runs — run it
  // as one sweep, then emit rows in grid order.
  std::vector<sim::SweepTask> tasks;
  for (double plr : plrs) {
    for (double th : intra_ths) {
      core::PbpairConfig pbpair;
      pbpair.intra_th = th;
      pbpair.plr = plr;
      tasks.push_back(
          bench::clip_task(kind, sim::SchemeSpec::pbpair(pbpair), config));
    }
  }
  std::vector<sim::PipelineResult> results = sim::run_parallel_sweep(tasks);

  sim::Table table({"Intra_Th", "PLR", "intra_MBs/frame", "ME_skipped/frame",
                    "size_KB", "encode_J", "tx_J", "total_J"});
  std::size_t t = 0;
  for (double plr : plrs) {
    for (double th : intra_ths) {
      const sim::PipelineResult& r = results[t++];
      std::uint64_t skipped = 0;
      for (const sim::FrameTrace& f : r.frames) skipped += f.pre_me_intra_mbs;
      table.add_row(
          {sim::format("%.2f", th), sim::format("%.2f", plr),
           sim::format("%.1f", static_cast<double>(r.total_intra_mbs) / frames),
           sim::format("%.1f", static_cast<double>(skipped) / frames),
           sim::format("%.1f", static_cast<double>(r.total_bytes) / 1024.0),
           sim::format("%.3f", r.encode_energy.total_j()),
           sim::format("%.3f", r.tx_energy_j),
           sim::format("%.3f", r.total_energy_j())});
    }
  }
  table.print();

  std::printf(
      "\nexpected shape (paper): intra MBs grow with Intra_Th and with PLR;\n"
      "encoding energy falls as intra MBs rise (skipped ME), while encoded\n"
      "size and transmit energy grow; Intra_Th=0 behaves like NO, Intra_Th=1\n"
      "codes every MB intra.\n");

  bench::write_json_report(
      "sec43", sim::format("\"frames\": %d,\n", frames) +
                   "  \"operating_points\": " + bench::table_to_json(table));
  return 0;
}
