#include "obs/bench_compare.h"

#include <set>
#include <utility>

namespace pbpair::obs {

const std::vector<Gate>& bench_gates() {
  static const std::vector<Gate> gates = {
      // Per-kernel ns/call for every backend the baseline machine measured.
      {"BENCH_kernels.json", "kernels", "*_ns", false, false, 1.25},
      // Deterministic cells (seeded loss, modeled energy): the tolerances
      // only absorb cross-compiler floating-point noise. recovery_rate is
      // a fraction in [0, 1], so it gates on an absolute drop.
      {"BENCH_fec.json", "fec_rows", "recovery_rate", true, true, 0.25},
      {"BENCH_fec.json", "fec_rows", "j_per_frame", false, false, 1.25},
      // Copy-ledger fraction, deterministic; packets_per_s is wall-clock
      // and never gated.
      {"BENCH_wire.json", "wire_rows", "copy_reduction", true, true, 0.05},
      // Wall-clock on shared runners: generous enough to pass noise, tight
      // enough to catch bumps falling back to a locked slow path.
      {"BENCH_obs.json", "obs_rows", "ns_per_op", false, false, 1.5},
      {"BENCH_obs.json", "obs_rows", "overhead_ratio", false, false, 1.5},
      // p99 comes from log2-bucket histograms, so the factor counts bucket
      // jumps: 4.5 passes two (4x, one flaky frame on a small fleet) and
      // fails three (8x, a real scheduling regression).
      {"BENCH_sessions.json", "sessions_rows", "sessions_per_sec", true,
       false, 4.5},
      {"BENCH_sessions.json", "sessions_rows", "p99_frame_ms", false, false,
       4.5},
  };
  return gates;
}

namespace {

using Status = GateVerdict::Status;

const common::JsonValue* find_row(const common::JsonValue* rows,
                                  const std::string& name) {
  for (const common::JsonValue& row : rows->items()) {
    if (row.string_at("name") == name) return &row;
  }
  return nullptr;
}

bool field_matches(const std::string& pattern, const std::string& key) {
  if (pattern.empty() || pattern[0] != '*') return key == pattern;
  const std::size_t n = pattern.size() - 1;
  return key.size() > n && key.compare(key.size() - n, n, pattern, 1) == 0;
}

GateVerdict compare_field(const Gate& gate, const std::string& row,
                          const std::string& field, double baseline,
                          const common::JsonValue* current) {
  GateVerdict v{.report = gate.report, .row = row, .field = field,
                .baseline = baseline, .note = ""};
  if (current == nullptr || !current->is_number()) {
    const bool wildcard = gate.field[0] == '*';
    v.status = wildcard ? Status::kWarn : Status::kFail;
    v.note = wildcard ? "not measured here" : "missing field";
    return v;
  }
  v.current = current->as_number();
  const double t = gate.tolerance;
  if (gate.higher_is_better) {
    v.limit = gate.absolute ? baseline - t : baseline / t;
  } else {
    v.limit = gate.absolute ? baseline + t : baseline * t;
  }
  // Written as the pass condition so a NaN never passes.
  const bool ok = gate.higher_is_better ? v.current >= v.limit
                                        : v.current <= v.limit;
  v.status = ok ? Status::kOk : Status::kFail;
  return v;
}

}  // namespace

std::vector<GateVerdict> compare_reports(const ReportSet& baseline,
                                         const ReportSet& current,
                                         const std::vector<Gate>& gates) {
  std::vector<GateVerdict> out;
  auto flag = [&](const std::string& report, const std::string& row,
                  Status status, const char* note) {
    out.push_back({.report = report, .row = row, .field = "",
                   .status = status, .note = note});
  };
  std::set<std::pair<std::string, std::string>> seen;
  for (const Gate& table : gates) {
    if (!seen.insert({table.report, table.rows}).second) continue;
    const auto base_it = baseline.find(table.report);
    const auto cur_it = current.find(table.report);
    if (base_it == baseline.end() || cur_it == current.end()) {
      flag(table.report, "", Status::kFail,
           base_it == baseline.end() ? "missing baseline file"
                                     : "missing current file");
      continue;
    }
    static const common::JsonValue kNoRows;
    const common::JsonValue* base_rows = base_it->second.find(table.rows);
    const common::JsonValue* cur_rows = cur_it->second.find(table.rows);
    if (base_rows == nullptr || base_rows->items().empty()) {
      flag(table.report, "", Status::kFail, "baseline has no rows");
      continue;
    }
    if (cur_rows == nullptr) cur_rows = &kNoRows;

    for (const common::JsonValue& base_row : base_rows->items()) {
      const std::string& name = base_row.string_at("name");
      if (name.empty()) continue;
      const common::JsonValue* cur_row = find_row(cur_rows, name);
      if (cur_row == nullptr) {
        flag(table.report, name, Status::kFail, "missing row");
        continue;
      }
      for (const Gate& gate : gates) {
        if (gate.report != table.report || gate.rows != table.rows) continue;
        for (const auto& [key, value] : base_row.members()) {
          if (!field_matches(gate.field, key) || !value.is_number()) continue;
          out.push_back(compare_field(gate, name, key, value.as_number(),
                                      cur_row->find(key)));
        }
      }
    }
    for (const common::JsonValue& cur_row : cur_rows->items()) {
      const std::string& name = cur_row.string_at("name");
      if (!name.empty() && find_row(base_rows, name) == nullptr) {
        flag(table.report, name, Status::kWarn, "new row");
      }
    }
  }
  return out;
}

bool gates_pass(const std::vector<GateVerdict>& verdicts) {
  for (const GateVerdict& v : verdicts) {
    if (v.status == Status::kFail) return false;
  }
  return true;
}

}  // namespace pbpair::obs
