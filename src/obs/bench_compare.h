// Benchmark regression gate over the committed BENCH_*.json baselines.
//
// One table, bench_gates(), lists every gated column of every committed
// report: the file, its rows array, the field, which direction is better
// and how much worse a fresh run may get. compare_reports() applies a gate
// table to a set of baseline reports and a set of fresh ones and returns
// one verdict per (report, row, field). The logic lives in the library so
// tests can drive it; tools/check_bench_regression is the thin CLI CI runs.
//
// Row rules, shared by every gate: rows match by "name"; a baseline row
// absent from the current report fails (a vanished row hides a
// regression); a current row with no baseline only warns (a new operating
// point must not fail CI before its baseline lands); a field gates a row
// only when the baseline row carries it. Improvements never fail.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace pbpair::obs {

struct Gate {
  std::string report;  // file name, e.g. "BENCH_fec.json"
  std::string rows;    // array of row objects, e.g. "fec_rows"
  /// Column name. A leading '*' matches every column with that suffix
  /// ("*_ns": each per-backend kernel timing); such a column missing from
  /// the current row only warns, because a runner without AVX-512 has no
  /// avx512_ns. A named column missing from the current row fails.
  std::string field;
  bool higher_is_better = false;
  /// Absolute: fails when current is worse than baseline by more than
  /// `tolerance` (for fractions such as recovery_rate). Relative: fails
  /// when current > baseline * tolerance (lower is better) or
  /// baseline > current * tolerance (higher is better), so a factor above
  /// 2 still leaves a meaningful throughput floor.
  bool absolute = false;
  double tolerance = 1.0;
};

/// The gates CI enforces. It is also the one list of gated reports: every
/// file named here must be present in both the baseline and current sets.
const std::vector<Gate>& bench_gates();

struct GateVerdict {
  enum class Status { kOk, kWarn, kFail };
  std::string report;
  std::string row;    // empty when the finding is about the whole report
  std::string field;  // empty when the whole row is missing or new
  double baseline = 0.0;
  double current = 0.0;
  /// The worst current value that still passes (comparisons only).
  double limit = 0.0;
  Status status = Status::kOk;
  /// Empty for a plain comparison; otherwise why there is nothing to
  /// compare ("missing row", "new row", ...).
  std::string note;
};

/// Parsed reports keyed by file name ("BENCH_fec.json").
using ReportSet = std::map<std::string, common::JsonValue>;

std::vector<GateVerdict> compare_reports(const ReportSet& baseline,
                                         const ReportSet& current,
                                         const std::vector<Gate>& gates);

/// True when no verdict fails; warnings pass.
bool gates_pass(const std::vector<GateVerdict>& verdicts);

}  // namespace pbpair::obs
