// FEC vs intra refresh — the packet-level trade-off matrix.
//
// The paper spends its error-resilience budget inside the encoder (intra
// refresh steered by Intra_Th); the FEC subsystem (net/fec.h) spends it on
// the wire instead (repair packets per window of k). This bench runs the
// full cross product
//
//     scheme  (pbpair-only | fec-only | hybrid)
//   x loss    (i.i.d. packet loss | Gilbert-Elliott bursts | fault injector)
//   x rate    (k=8,m=1 | k=8,m=2 | k=4,m=2)
//
// and reports PSNR, application goodput (bytes of frames that arrived
// intact, post-FEC), J/frame on the iPAQ model (repair packets are metered
// by the transmit stage like any other wire bytes), the repair recovery
// rate, and PSNR-per-joule — the figure of merit the hybrid operating
// point has to win on.
//
// Every cell is deterministic (seeded loss, modeled energy), so the
// emitted BENCH_fec.json doubles as a CI regression baseline: the
// bench-smoke job re-runs this matrix at the baseline's
// PBPAIR_BENCH_FRAMES=300 and check_bench_regression gates the
// recovery_rate and j_per_frame columns against the committed file
// (tolerances in obs::bench_gates()).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/fault_injector.h"
#include "net/fec.h"
#include "net/loss_model.h"
#include "sim/parallel_sweep.h"
#include "sim/report.h"

using namespace pbpair;

namespace {

struct RatePoint {
  const char* tag;  // stable row-name component, e.g. "k8m2"
  int k;
  int m;
};

struct LossPoint {
  const char* tag;  // "iid" | "ge" | "fault"
  std::function<std::unique_ptr<net::LossModel>()> make_loss;
  std::optional<net::FaultInjectorConfig> faults;
};

struct Cell {
  std::string name;    // "<loss>/<scheme>[/<rate>]" — the gate's row key
  std::string scheme;  // pbpair | fec | hybrid
  std::string loss;
  int k = 0;
  int m = 0;
  double psnr_db = 0.0;
  double goodput_kbps = 0.0;
  double j_per_frame = 0.0;
  double recovery_rate = 0.0;
  double repair_overhead = 0.0;  // repair wire bytes / media wire bytes
  double psnr_per_j = 0.0;
};

double json_num(double v) { return v != v ? 0.0 : v; }  // NaN -> 0

}  // namespace

int main() {
  bench::enable_observability("fec_tradeoff");
  const int frames = bench::bench_frames();
  const video::SequenceKind kind = video::SequenceKind::kForemanLike;
  const double fps = 30.0;
  std::printf(
      "=== FEC vs intra refresh: scheme x loss x rate trade-off "
      "(%d foreman-like QCIF frames) ===\n\n",
      frames);

  // Loss operating points. All three average a high-single-digit PLR so
  // the schemes are comparable; they differ in burst structure:
  //   iid    independent per-packet drops (FEC's best case),
  //   ge     Gilbert-Elliott bursts, ~11% of time in a 50%-loss bad state
  //          (bursts overwhelm small m; intra refresh matters),
  //   fault  light i.i.d. loss plus hostile byte damage — truncations and
  //          header corruption eat media AND repair packets alike.
  std::vector<LossPoint> losses;
  losses.push_back({"iid",
                    [] {
                      return std::make_unique<net::BernoulliPacketLoss>(
                          0.08, /*seed=*/2005);
                    },
                    std::nullopt});
  losses.push_back({"ge",
                    [] {
                      net::GilbertElliottLoss::Params params;
                      params.p_good_to_bad = 0.05;
                      params.p_bad_to_good = 0.40;
                      params.loss_in_good = 0.005;
                      params.loss_in_bad = 0.50;
                      return std::make_unique<net::GilbertElliottLoss>(
                          params, /*seed=*/2005);
                    },
                    std::nullopt});
  net::FaultInjectorConfig hostile;
  hostile.seed = 2005;
  hostile.p_truncate = 0.04;
  hostile.p_header_corrupt = 0.03;
  hostile.p_duplicate = 0.02;
  losses.push_back({"fault",
                    [] {
                      return std::make_unique<net::BernoulliPacketLoss>(
                          0.04, /*seed=*/2005);
                    },
                    hostile});

  const std::vector<RatePoint> rates = {
      {"k8m1", 8, 1}, {"k8m2", 8, 2}, {"k4m2", 4, 2}};

  // One PBPAIR operating point shared by the pbpair-only and hybrid rows,
  // so their delta isolates what the repair packets buy. fec-only encodes
  // with no resilience at all — every recovery must come off the wire.
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.85;
  pbpair.plr = 0.08;

  sim::PipelineConfig base_config = bench::paper_pipeline_config(frames);
  base_config.packetizer.mtu = 96;  // several packets per frame, so FEC
                                    // windows actually fill

  std::vector<Cell> cells;
  std::vector<sim::SweepTask> tasks;
  auto add_cell = [&](const LossPoint& loss, const std::string& scheme_tag,
                      const sim::SchemeSpec& scheme, const RatePoint* rate) {
    Cell cell;
    cell.scheme = scheme_tag;
    cell.loss = loss.tag;
    cell.name = std::string(loss.tag) + "/" + scheme_tag;
    sim::PipelineConfig config = base_config;
    config.faults = loss.faults;
    if (rate != nullptr) {
      cell.name += std::string("/") + rate->tag;
      cell.k = rate->k;
      cell.m = rate->m;
      net::FecConfig fec;
      fec.scheme = net::FecScheme::kReedSolomon;
      fec.k = rate->k;
      fec.m = rate->m;
      config.fec = fec;
    }
    cells.push_back(cell);
    tasks.push_back(bench::clip_task(kind, scheme, config, loss.make_loss));
  };

  for (const LossPoint& loss : losses) {
    add_cell(loss, "pbpair", sim::SchemeSpec::pbpair(pbpair), nullptr);
    for (const RatePoint& rate : rates) {
      add_cell(loss, "fec", sim::SchemeSpec::no_resilience(), &rate);
      add_cell(loss, "hybrid", sim::SchemeSpec::pbpair(pbpair), &rate);
    }
  }

  std::vector<sim::PipelineResult> results = sim::run_parallel_sweep(tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::PipelineResult& r = results[i];
    Cell& cell = cells[i];
    cell.psnr_db = r.avg_psnr_db;
    cell.j_per_frame = r.total_energy_j() / frames;
    // Application goodput: bytes of frames every media packet of which
    // reached the depacketizer (losses repaired by FEC count as arrived).
    // Recovery rate: of the media packets the decoder would have missed
    // (channel drops AND fault-injector kills), the fraction FEC restored
    // — recovered / (recovered + still missing post-FEC), bounded [0,1].
    std::uint64_t intact_bytes = 0;
    std::uint64_t still_missing = 0;
    for (const sim::FrameTrace& f : r.frames) {
      if (!f.lost) intact_bytes += f.bytes;
      const int media_sent = f.packets_sent - f.fec_repair_sent;
      if (media_sent > f.packets_delivered) {
        still_missing +=
            static_cast<std::uint64_t>(media_sent - f.packets_delivered);
      }
    }
    cell.goodput_kbps = static_cast<double>(intact_bytes) * 8.0 /
                        (static_cast<double>(frames) / fps) / 1000.0;
    const double repaired_plus_missing =
        static_cast<double>(r.fec_decode.packets_recovered + still_missing);
    cell.recovery_rate =
        repaired_plus_missing > 0.0
            ? static_cast<double>(r.fec_decode.packets_recovered) /
                  repaired_plus_missing
            : 0.0;
    const std::uint64_t media_bytes =
        r.channel.bytes_sent - r.fec_encode.repair_bytes;
    cell.repair_overhead =
        media_bytes > 0
            ? static_cast<double>(r.fec_encode.repair_bytes) / media_bytes
            : 0.0;
    cell.psnr_per_j =
        cell.j_per_frame > 0.0 ? cell.psnr_db / cell.j_per_frame : 0.0;
  }

  sim::Table table({"cell", "psnr_db", "goodput_kbps", "j_per_frame",
                    "recovery", "overhead", "psnr_per_j"});
  for (const Cell& cell : cells) {
    table.add_row({cell.name, sim::format("%.2f", cell.psnr_db),
                   sim::format("%.1f", cell.goodput_kbps),
                   sim::format("%.4f", cell.j_per_frame),
                   sim::format("%.3f", cell.recovery_rate),
                   sim::format("%.3f", cell.repair_overhead),
                   sim::format("%.2f", cell.psnr_per_j)});
  }
  table.print();
  bench::maybe_write_csv(table, "fec_tradeoff");

  // The acceptance bar: on at least one Gilbert-Elliott rate point the
  // hybrid must beat BOTH pure strategies on PSNR-per-joule — encoder
  // resilience soaks up the bursts FEC cannot span, FEC cleans up the
  // residual i.i.d.-ish losses the intra refresh would otherwise pay
  // bitrate (and quality) to out-run.
  const Cell* ge_pbpair = nullptr;
  for (const Cell& cell : cells) {
    if (cell.loss == "ge" && cell.scheme == "pbpair") ge_pbpair = &cell;
  }
  const Cell* winner = nullptr;
  for (const Cell& cell : cells) {
    if (cell.loss != "ge" || cell.scheme != "hybrid") continue;
    const Cell* fec_peer = nullptr;
    for (const Cell& peer : cells) {
      if (peer.loss == "ge" && peer.scheme == "fec" && peer.k == cell.k &&
          peer.m == cell.m) {
        fec_peer = &peer;
      }
    }
    if (fec_peer == nullptr || ge_pbpair == nullptr) continue;
    if (cell.psnr_per_j > ge_pbpair->psnr_per_j &&
        cell.psnr_per_j > fec_peer->psnr_per_j) {
      if (winner == nullptr || cell.psnr_per_j > winner->psnr_per_j) {
        winner = &cell;
      }
    }
  }
  std::printf("\n");
  if (winner != nullptr) {
    std::printf(
        "hybrid dominance (Gilbert-Elliott): %s at %.2f dB/J beats "
        "pbpair-only (%.2f) and fec-only at the same rate\n",
        winner->name.c_str(), winner->psnr_per_j, ge_pbpair->psnr_per_j);
  } else {
    std::printf(
        "WARNING: no hybrid Gilbert-Elliott point dominates both pure "
        "strategies in PSNR-per-joule at this frame count\n");
  }

  std::string rows_json = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    rows_json += i == 0 ? "\n      {" : ",\n      {";
    rows_json += sim::format(
        "\"name\": \"%s\", \"scheme\": \"%s\", \"loss\": \"%s\", "
        "\"k\": %d, \"m\": %d, \"psnr_db\": %.4f, \"goodput_kbps\": %.4f, "
        "\"j_per_frame\": %.6f, \"recovery_rate\": %.6f, "
        "\"repair_overhead\": %.6f, \"psnr_per_j\": %.4f}",
        cell.name.c_str(), cell.scheme.c_str(), cell.loss.c_str(), cell.k,
        cell.m, json_num(cell.psnr_db), json_num(cell.goodput_kbps),
        json_num(cell.j_per_frame), json_num(cell.recovery_rate),
        json_num(cell.repair_overhead), json_num(cell.psnr_per_j));
  }
  rows_json += "\n    ]";

  std::string payload = sim::format("\"frames\": %d,\n  ", frames);
  payload += sim::format(
      "\"hybrid_dominates_ge\": %s,\n  ",
      winner != nullptr ? "true" : "false");
  if (winner != nullptr) {
    payload += sim::format("\"dominant_point\": \"%s\",\n  ",
                           winner->name.c_str());
  }
  payload += "\"fec_rows\": " + rows_json;
  bench::write_json_report("fec", payload);
  return 0;
}
