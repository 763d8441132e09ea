// check_bench_regression — CI gate over the committed BENCH_*.json reports.
//
//   check_bench_regression --baseline-dir . --current-dir bench-artifacts
//
// Loads every report obs::bench_gates() names from both directories and
// applies the whole gate table in one call, printing one line per
// (report, row, field). Exit 0 = pass (warnings allowed); 1 = a gated
// field got worse than its tolerance, a baseline row or named field
// vanished, or a gated report is missing from either directory; 2 = usage
// or parse error, including any flag this tool does not take.
// Better-than-baseline results never fail — baselines are refreshed by
// re-running the bench and committing the new file.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/args.h"
#include "common/json.h"
#include "obs/bench_compare.h"
#include "sim/report.h"

using namespace pbpair;

namespace {

// Parses every gated report present in `dir`; an absent file is left out
// for compare_reports to fail, an unreadable or malformed one is an error.
bool load_reports(const std::string& dir, obs::ReportSet* out) {
  for (const obs::Gate& gate : obs::bench_gates()) {
    const std::string path = dir + "/" + gate.report;
    if (out->count(gate.report) != 0 || !std::filesystem::exists(path)) {
      continue;
    }
    std::string error;
    if (!common::parse_json_file(path, &(*out)[gate.report], &error)) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args(argc, argv);
  const std::string baseline_dir = args.get("baseline-dir");
  const std::string current_dir = args.get("current-dir");
  bool usage_ok = !baseline_dir.empty() && !current_dir.empty() &&
                  args.positional().empty();
  for (const std::string& flag : args.unknown_flags()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    usage_ok = false;
  }
  if (!usage_ok) {
    std::fprintf(stderr, "usage: check_bench_regression --baseline-dir DIR "
                         "--current-dir DIR\n");
    return 2;
  }

  obs::ReportSet baseline, current;
  if (!load_reports(baseline_dir, &baseline) ||
      !load_reports(current_dir, &current)) {
    return 2;
  }
  const std::vector<obs::GateVerdict> verdicts =
      obs::compare_reports(baseline, current, obs::bench_gates());

  sim::Table table(
      {"report", "row", "field", "baseline", "current", "limit", "verdict"});
  const char* const kStatus[] = {"ok", "warn", "FAIL"};  // by Status value
  int counts[3] = {};
  auto number = [](bool shown, double x) {
    return shown ? sim::format("%.6g", x) : std::string("-");
  };
  for (const obs::GateVerdict& v : verdicts) {
    const int status = static_cast<int>(v.status);
    ++counts[status];
    const bool compared = v.note.empty();
    table.add_row({v.report, v.row.empty() ? "-" : v.row,
                   v.field.empty() ? "-" : v.field,
                   number(!v.field.empty(), v.baseline),
                   number(compared, v.current), number(compared, v.limit),
                   compared ? kStatus[status]
                            : std::string(kStatus[status]) + ": " + v.note});
  }
  table.print();
  const bool pass = obs::gates_pass(verdicts);
  std::printf("%s: %d failed, %d warned of %zu verdicts vs %s\n",
              pass ? "OK" : "FAIL", counts[2], counts[1], verdicts.size(),
              baseline_dir.c_str());
  return pass ? 0 : 1;
}
