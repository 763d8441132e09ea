// Zero-copy wire path — bytes copied per frame and packet throughput.
//
// The arena refactor's whole claim is that payload bytes stop being
// memcpy'd at every hop (packetize -> FEC encode -> channel -> FEC decode
// -> depacketize) and travel as ref-counted slices instead. This bench
// measures that claim on the hardest scenario the FEC matrix has — the
// k=8,m=2 Reed-Solomon HYBRID point under Gilbert-Elliott bursts from
// bench/fec_tradeoff.cpp, where every stage that can touch a payload does
// — using the common/buffer.h copy ledger:
//
//   legacy_bytes  what the pre-arena code would have copied at the same
//                 sites (every historical memcpy is still counted),
//   copied_bytes  what the arena path actually copies now.
//
// copy_reduction = 1 - copied/legacy is fully deterministic (ledger
// counts, not timing) and must stay >= 0.70: the refactor's acceptance
// bar, re-checked here on every run and gated in CI by
// check_bench_regression against the committed BENCH_wire.json
// (tolerance in obs::bench_gates()). packets_per_s is wall-clock and
// informational only.
//
// Rows: the scenario with CRC framing off (byte-identical wire to the
// pre-arena build) and on (8-byte trailers, verify_integrity stage), so
// the gate also catches a regression that only the CRC path triggers.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/buffer.h"
#include "common/check.h"
#include "net/fec.h"
#include "net/loss_model.h"
#include "sim/report.h"

using namespace pbpair;

namespace {

struct Row {
  std::string name;
  double legacy_bytes_per_frame = 0.0;
  double copied_bytes_per_frame = 0.0;
  double copy_reduction = 0.0;
  double packets_per_s = 0.0;  // wall-clock; informational, never gated
};

std::unique_ptr<net::LossModel> make_ge_loss() {
  net::GilbertElliottLoss::Params params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.40;
  params.loss_in_good = 0.005;
  params.loss_in_bad = 0.50;
  return std::make_unique<net::GilbertElliottLoss>(params, /*seed=*/2005);
}

}  // namespace

int main() {
  bench::enable_observability("wire_path");
  const int frames = bench::bench_frames();
  const video::SequenceKind kind = video::SequenceKind::kForemanLike;
  std::printf(
      "=== Zero-copy wire path: bytes copied per frame "
      "(ge/hybrid/k8m2, %d foreman-like QCIF frames) ===\n\n",
      frames);

  // The fec_tradeoff ge/hybrid/k8m2 cell verbatim: PBPAIR at the shared
  // operating point plus RS(k=8,m=2) over MTU-96 packets, Gilbert-Elliott
  // bursts. Small MTU = many packets per frame = the copy-per-hop cost
  // the arena is supposed to delete.
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.85;
  pbpair.plr = 0.08;
  sim::PipelineConfig base_config = bench::paper_pipeline_config(frames);
  base_config.packetizer.mtu = 96;
  net::FecConfig fec;
  fec.scheme = net::FecScheme::kReedSolomon;
  fec.k = 8;
  fec.m = 2;
  base_config.fec = fec;

  std::vector<Row> rows;
  for (const bool crc : {false, true}) {
    sim::PipelineConfig config = base_config;
    if (crc) config.wire = net::WireConfig{};
    common::reset_copy_ledger();
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<net::LossModel> loss = make_ge_loss();
    const sim::PipelineResult r = bench::run_clip(
        kind, sim::SchemeSpec::pbpair(pbpair), loss.get(), config);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const common::CopyLedgerSnapshot ledger = common::copy_ledger();

    Row row;
    row.name = std::string("ge/hybrid/k8m2/") + (crc ? "crc" : "base");
    row.legacy_bytes_per_frame =
        static_cast<double>(ledger.legacy_bytes) / frames;
    row.copied_bytes_per_frame =
        static_cast<double>(ledger.copied_bytes) / frames;
    row.copy_reduction =
        ledger.legacy_bytes > 0
            ? 1.0 - static_cast<double>(ledger.copied_bytes) /
                        static_cast<double>(ledger.legacy_bytes)
            : 0.0;
    row.packets_per_s =
        elapsed_s > 0.0
            ? static_cast<double>(r.channel.packets_sent) / elapsed_s
            : 0.0;
    // The refactor's acceptance bar: at least 70% of the payload bytes
    // the old wire path copied per frame are no longer copied at all.
    PB_CHECK(row.copy_reduction >= 0.70);
    rows.push_back(std::move(row));
  }

  sim::Table table({"scenario", "legacy_B/frame", "copied_B/frame",
                    "copy_reduction", "packets_per_s"});
  for (const Row& row : rows) {
    table.add_row({row.name,
                   sim::format("%.0f", row.legacy_bytes_per_frame),
                   sim::format("%.0f", row.copied_bytes_per_frame),
                   sim::format("%.3f", row.copy_reduction),
                   sim::format("%.0f", row.packets_per_s)});
  }
  table.print();
  bench::maybe_write_csv(table, "wire_path");

  std::string rows_json = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    rows_json += i == 0 ? "\n      {" : ",\n      {";
    rows_json += sim::format(
        "\"name\": \"%s\", \"legacy_bytes_per_frame\": %.2f, "
        "\"copied_bytes_per_frame\": %.2f, \"copy_reduction\": %.6f, "
        "\"packets_per_s\": %.1f}",
        row.name.c_str(), row.legacy_bytes_per_frame,
        row.copied_bytes_per_frame, row.copy_reduction, row.packets_per_s);
  }
  rows_json += "\n    ]";

  std::string payload = sim::format("\"frames\": %d,\n  ", frames);
  payload += "\"wire_rows\": " + rows_json;
  bench::write_json_report("wire", payload);
  return 0;
}
