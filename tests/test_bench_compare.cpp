// Tests for the bench regression gate (obs/bench_compare.h): the shared row
// rules on small hand-written reports, every entry of the real gate table
// against seeded regressions on its committed baseline, and the exit codes
// of tools/check_bench_regression.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/bench_compare.h"
#include "sim/report.h"

namespace pbpair {
namespace {

using Status = obs::GateVerdict::Status;

common::JsonValue parse(const std::string& text) {
  common::JsonValue value;
  std::string error;
  EXPECT_TRUE(common::JsonValue::parse(text, &value, &error)) << error;
  return value;
}

obs::Gate gate(const char* rows, const char* field, bool higher_is_better,
               bool absolute, double tolerance) {
  return {"r.json", rows, field, higher_is_better, absolute, tolerance};
}

// Applies `gates` (all filed under "r.json") to one pair of report texts.
std::vector<obs::GateVerdict> compare(const char* baseline,
                                      const char* current,
                                      const std::vector<obs::Gate>& gates) {
  return obs::compare_reports({{"r.json", parse(baseline)}},
                              {{"r.json", parse(current)}}, gates);
}

// The verdicts with `status`, as "row:field" (or "row" for a whole row).
std::vector<std::string> named(const std::vector<obs::GateVerdict>& verdicts,
                               Status status) {
  std::vector<std::string> out;
  for (const obs::GateVerdict& v : verdicts) {
    if (v.status != status) continue;
    out.push_back(v.field.empty() ? v.row : v.row + ":" + v.field);
  }
  return out;
}

using Names = std::vector<std::string>;

TEST(BenchCompare, PassesWithinThresholdFailsBeyondIt) {
  const char* baseline = R"({"kernels": [
      {"name": "sad_16x16", "scalar_ns": 100.0, "sse2_ns": 40.0},
      {"name": "dct_8x8", "scalar_ns": 200.0}]})";
  const char* current = R"({"kernels": [
      {"name": "sad_16x16", "scalar_ns": 110.0, "sse2_ns": 70.0},
      {"name": "dct_8x8", "scalar_ns": 190.0}]})";
  const auto verdicts =
      compare(baseline, current, {gate("kernels", "*_ns", false, false, 1.25)});
  EXPECT_FALSE(obs::gates_pass(verdicts));  // sse2 went 40 -> 70: 1.75x
  EXPECT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"sad_16x16:sse2_ns"});
  EXPECT_DOUBLE_EQ(verdicts[1].limit, 50.0);

  // A generous tolerance accepts the same pair.
  const obs::Gate generous = gate("kernels", "*_ns", false, false, 2.0);
  EXPECT_TRUE(obs::gates_pass(compare(baseline, current, {generous})));
}

TEST(BenchCompare, MissingKernelIsAFailureMissingFieldIsNot) {
  const char* baseline = R"({"kernels": [
      {"name": "sad_16x16", "scalar_ns": 100.0, "avx2_ns": 20.0},
      {"name": "quant_block", "scalar_ns": 50.0}]})";
  // avx2_ns absent (machine without AVX2): a wildcard column, so only a
  // warning. quant_block gone entirely: failure.
  const char* current = R"({"kernels": [
      {"name": "sad_16x16", "scalar_ns": 100.0}]})";
  const auto verdicts =
      compare(baseline, current, {gate("kernels", "*_ns", false, false, 1.25)});
  EXPECT_FALSE(obs::gates_pass(verdicts));
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"quant_block"});
  EXPECT_EQ(named(verdicts, Status::kWarn), Names{"sad_16x16:avx2_ns"});
  EXPECT_EQ(named(verdicts, Status::kOk), Names{"sad_16x16:scalar_ns"});
}

const std::vector<obs::Gate> kFecGates = {
    gate("fec_rows", "recovery_rate", true, true, 0.25),
    gate("fec_rows", "j_per_frame", false, false, 1.25)};

TEST(BenchCompare, FecGatesRecoveryAbsoluteAndEnergyRelative) {
  const char* baseline = R"({"fec_rows": [
      {"name": "ge/hybrid/k8m2", "recovery_rate": 0.60, "j_per_frame": 0.010},
      {"name": "iid/fec/k8m1", "recovery_rate": 0.90, "j_per_frame": 0.011}]})";
  // Row 1: recovery fell 0.60 -> 0.20 (beyond a 0.25 absolute drop) while
  // energy improved. Row 2: recovery improved but energy grew +45%.
  const char* current = R"({"fec_rows": [
      {"name": "ge/hybrid/k8m2", "recovery_rate": 0.20, "j_per_frame": 0.009},
      {"name": "iid/fec/k8m1", "recovery_rate": 0.95, "j_per_frame": 0.016}]})";
  const auto verdicts = compare(baseline, current, kFecGates);
  EXPECT_EQ(verdicts.size(), 4u);
  const Names failing = {"ge/hybrid/k8m2:recovery_rate",
                         "iid/fec/k8m1:j_per_frame"};
  EXPECT_EQ(named(verdicts, Status::kFail), failing);

  // Generous tolerances accept the same pair.
  EXPECT_TRUE(obs::gates_pass(
      compare(baseline, current,
              {gate("fec_rows", "recovery_rate", true, true, 0.5),
               gate("fec_rows", "j_per_frame", false, false, 1.5)})));
}

TEST(BenchCompare, FecMissingRowFailsUnknownRowOnlyWarns) {
  const char* baseline = R"({"fec_rows": [
      {"name": "ge/pbpair", "recovery_rate": 0.0, "j_per_frame": 0.010},
      {"name": "ge/fec/k4m2", "recovery_rate": 0.7, "j_per_frame": 0.011}]})";
  // ge/fec/k4m2 vanished (failure); ge/hybrid/k4m4 is new (warn-only, so
  // a freshly added operating point cannot fail CI before its baseline
  // row is committed).
  const char* current = R"({"fec_rows": [
      {"name": "ge/pbpair", "recovery_rate": 0.0, "j_per_frame": 0.010},
      {"name": "ge/hybrid/k4m4", "recovery_rate": 0.9, "j_per_frame": 0.012}]})";
  const auto verdicts = compare(baseline, current, kFecGates);
  EXPECT_FALSE(obs::gates_pass(verdicts));
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"ge/fec/k4m2"});
  EXPECT_EQ(named(verdicts, Status::kWarn), Names{"ge/hybrid/k4m4"});

  // With the missing row restored, the unknown row alone stays green.
  EXPECT_TRUE(obs::gates_pass(compare(current, current, kFecGates)));
}

const std::vector<obs::Gate> kObsGates = {
    gate("obs_rows", "ns_per_op", false, false, 1.5),
    gate("obs_rows", "overhead_ratio", false, false, 1.5)};

TEST(BenchCompare, ObsGatesNsPerOpAndOverheadRatioRelative) {
  const char* baseline = R"({"obs_rows": [
      {"name": "bump/t8", "ns_per_op": 10.0, "mops_per_s": 100.0},
      {"name": "pipeline/t2", "overhead_ratio": 1.05, "off_ms": 200.0}]})";
  // bump/t8 ns_per_op grew +80% (beyond 1.5x); pipeline/t2's ratio
  // improved, which must never fail.
  const char* current = R"({"obs_rows": [
      {"name": "bump/t8", "ns_per_op": 18.0, "mops_per_s": 55.0},
      {"name": "pipeline/t2", "overhead_ratio": 1.01, "off_ms": 900.0}]})";
  const auto verdicts = compare(baseline, current, kObsGates);
  // Only the gated fields compare: mops_per_s and off_ms never produce
  // verdicts, and a field gates a row only if the baseline row has it.
  EXPECT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"bump/t8:ns_per_op"});

  // A generous tolerance accepts the same pair.
  EXPECT_TRUE(obs::gates_pass(compare(
      baseline, current, {gate("obs_rows", "ns_per_op", false, false, 2.0)})));
}

TEST(BenchCompare, ObsMissingRowFailsUnknownRowOnlyWarns) {
  const char* baseline = R"({"obs_rows": [
      {"name": "bump/t1", "ns_per_op": 10.0},
      {"name": "bump/t8", "ns_per_op": 12.0}]})";
  const char* current = R"({"obs_rows": [
      {"name": "bump/t1", "ns_per_op": 10.0},
      {"name": "pipeline/t1", "overhead_ratio": 1.02}]})";
  const auto verdicts = compare(baseline, current, kObsGates);
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"bump/t8"});
  EXPECT_EQ(named(verdicts, Status::kWarn), Names{"pipeline/t1"});
  EXPECT_TRUE(obs::gates_pass(compare(current, current, kObsGates)));
}

std::vector<obs::Gate> sessions_gates(double factor) {
  return {gate("sessions_rows", "sessions_per_sec", true, false, factor),
          gate("sessions_rows", "p99_frame_ms", false, false, factor)};
}

TEST(BenchCompare, SessionsGatesThroughputFloorAndLatencyCeiling) {
  const char* baseline = R"({"sessions_rows": [
      {"name": "n8", "sessions_per_sec": 100.0, "frames_per_sec": 2400.0,
       "p50_frame_ms": 2.1, "p99_frame_ms": 4.2},
      {"name": "n256", "sessions_per_sec": 50.0, "frames_per_sec": 600.0,
       "p50_frame_ms": 2.1, "p99_frame_ms": 4.2}]})";
  // n8's throughput collapsed to 40/s (floor breach at factor 2:
  // 100 > 40 * 2) while its p99 improved; n256's p99 tripled (ceiling
  // breach: 12.6 > 4.2 * 2) while its throughput improved. Improvements
  // must never fail, breaches must.
  const char* current = R"({"sessions_rows": [
      {"name": "n8", "sessions_per_sec": 40.0, "frames_per_sec": 960.0,
       "p50_frame_ms": 1.0, "p99_frame_ms": 2.1},
      {"name": "n256", "sessions_per_sec": 120.0, "frames_per_sec": 1400.0,
       "p50_frame_ms": 2.1, "p99_frame_ms": 12.6}]})";
  const auto verdicts = compare(baseline, current, sessions_gates(2.0));
  // Only sessions_per_sec and p99_frame_ms gate: two rows, four verdicts.
  EXPECT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(named(verdicts, Status::kFail),
            (Names{"n8:sessions_per_sec", "n256:p99_frame_ms"}));

  // A factor wide enough for both movements accepts the same pair, and
  // identity always passes.
  const auto wider = compare(baseline, current, sessions_gates(3.5));
  EXPECT_TRUE(obs::gates_pass(wider));
  const auto identity = compare(baseline, baseline, sessions_gates(2.0));
  EXPECT_TRUE(obs::gates_pass(identity));
}

TEST(BenchCompare, SessionsMissingRowFailsUnknownRowOnlyWarns) {
  const char* baseline = R"({"sessions_rows": [
      {"name": "n8", "sessions_per_sec": 100.0, "p99_frame_ms": 4.2},
      {"name": "n10000", "sessions_per_sec": 30.0, "p99_frame_ms": 8.4}]})";
  // The 10k point vanished (a capacity regression could hide there: FAIL)
  // and a new 1k point appeared (no baseline yet: warn only).
  const char* current = R"({"sessions_rows": [
      {"name": "n8", "sessions_per_sec": 100.0, "p99_frame_ms": 4.2},
      {"name": "n1024", "sessions_per_sec": 45.0, "p99_frame_ms": 4.2}]})";
  const auto verdicts = compare(baseline, current, sessions_gates(2.0));
  EXPECT_EQ(named(verdicts, Status::kFail), Names{"n10000"});
  EXPECT_EQ(named(verdicts, Status::kWarn), Names{"n1024"});
  EXPECT_TRUE(obs::gates_pass(compare(current, current, sessions_gates(2.0))));
}

TEST(BenchCompare, ThroughputCollapseToZeroFails) {
  const char* baseline =
      R"({"sessions_rows": [{"name": "n8", "sessions_per_sec": 100.0}]})";
  const char* current =
      R"({"sessions_rows": [{"name": "n8", "sessions_per_sec": 0.0}]})";
  EXPECT_EQ(named(compare(baseline, current, sessions_gates(4.5)),
                  Status::kFail),
            Names{"n8:sessions_per_sec"});
}

TEST(BenchCompare, NamedFieldMissingFromCurrentRowFails) {
  const auto wire = compare(
      R"({"wire_rows": [{"name": "crc_off", "copy_reduction": 0.86}]})",
      R"({"wire_rows": [{"name": "crc_off", "packets_per_s": 9000.0}]})",
      {gate("wire_rows", "copy_reduction", true, true, 0.05)});
  EXPECT_EQ(named(wire, Status::kFail), Names{"crc_off:copy_reduction"});

  const auto fec = compare(
      R"({"fec_rows": [{"name": "ge/hybrid/k8m2", "recovery_rate": 0.6,
                        "j_per_frame": 0.010}]})",
      R"({"fec_rows": [{"name": "ge/hybrid/k8m2", "recovery_rate": 0.6}]})",
      kFecGates);
  EXPECT_EQ(named(fec, Status::kFail), Names{"ge/hybrid/k8m2:j_per_frame"});
  EXPECT_EQ(named(fec, Status::kOk), Names{"ge/hybrid/k8m2:recovery_rate"});
}

// --- The real table against the committed baselines ---

obs::ReportSet committed_baselines() {
  obs::ReportSet set;
  for (const obs::Gate& g : obs::bench_gates()) {
    std::string error;
    EXPECT_TRUE(common::parse_json_file(
        std::string(PBPAIR_SOURCE_DIR) + "/" + g.report, &set[g.report],
        &error))
        << error;
  }
  return set;
}

// Re-serializes `v`, writing `with` in place of the node `target`; an empty
// `with` drops that node from its array or object.
std::string dump(const common::JsonValue& v,
                 const common::JsonValue* target = nullptr,
                 const std::string& with = "") {
  using Kind = common::JsonValue::Kind;
  if (&v == target) return with;
  switch (v.kind()) {
    case Kind::kNull: return "null";
    case Kind::kBool: return v.as_bool() ? "true" : "false";
    case Kind::kNumber: return sim::format("%.17g", v.as_number());
    case Kind::kString: return "\"" + common::json_escape(v.as_string()) + "\"";
    case Kind::kArray:
    case Kind::kObject: break;
  }
  const bool array = v.is_array();
  std::string out;
  auto append = [&](const std::string& key, const common::JsonValue& child) {
    const std::string text = dump(child, target, with);
    if (text.empty()) return;
    out += out.empty() ? "" : ",";
    out += array ? text : "\"" + common::json_escape(key) + "\":" + text;
  };
  if (array) {
    for (const common::JsonValue& item : v.items()) append("", item);
  } else {
    for (const auto& [key, child] : v.members()) append(key, child);
  }
  return array ? "[" + out + "]" : "{" + out + "}";
}

// A copy of `set` whose report `name` has `target`, a node inside it,
// replaced by `with` (or dropped when `with` is empty).
obs::ReportSet edited(const obs::ReportSet& set, const std::string& name,
                      const common::JsonValue* target,
                      const std::string& with) {
  obs::ReportSet out = set;
  out[name] = parse(dump(set.at(name), target, with));
  return out;
}

// The table CI enforces, restated with literal tolerances: widening or
// tightening any entry of obs::bench_gates() fails the seeded cases below.
const std::vector<obs::Gate> kExpectedGates = {
    {"BENCH_kernels.json", "kernels", "*_ns", false, false, 1.25},
    {"BENCH_fec.json", "fec_rows", "recovery_rate", true, true, 0.25},
    {"BENCH_fec.json", "fec_rows", "j_per_frame", false, false, 1.25},
    {"BENCH_wire.json", "wire_rows", "copy_reduction", true, true, 0.05},
    {"BENCH_obs.json", "obs_rows", "ns_per_op", false, false, 1.5},
    {"BENCH_obs.json", "obs_rows", "overhead_ratio", false, false, 1.5},
    {"BENCH_sessions.json", "sessions_rows", "sessions_per_sec", true, false,
     4.5},
    {"BENCH_sessions.json", "sessions_rows", "p99_frame_ms", false, false,
     4.5},
};

bool gated_column(const std::string& pattern, const std::string& key) {
  if (pattern[0] != '*') return key == pattern;
  const std::string suffix = pattern.substr(1);
  return key.size() > suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The real table's verdicts once `value`, a column `want` gates, is moved a
// millionth past its limit (`past`) or a millionth inside it.
std::vector<obs::GateVerdict> seeded(const obs::ReportSet& baseline,
                                     const obs::Gate& want,
                                     const common::JsonValue& value,
                                     bool past) {
  const double b = value.as_number();
  const double t = want.tolerance;
  const double step = (want.higher_is_better == past ? -1.0 : 1.0) * 1e-6;
  const double moved =
      want.absolute ? (want.higher_is_better ? b - t : b + t) + step
                    : (want.higher_is_better ? b / t : b * t) * (1.0 + step);
  return obs::compare_reports(
      baseline,
      edited(baseline, want.report, &value, sim::format("%.17g", moved)),
      obs::bench_gates());
}

TEST(BenchCompare, EveryGateCatchesASeededRegressionOnItsBaseline) {
  const obs::ReportSet baseline = committed_baselines();
  const auto& gates = obs::bench_gates();
  ASSERT_EQ(gates.size(), kExpectedGates.size());
  const auto identity = obs::compare_reports(baseline, baseline, gates);
  EXPECT_TRUE(named(identity, Status::kFail).empty());
  EXPECT_TRUE(named(identity, Status::kWarn).empty());

  std::size_t cases = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const obs::Gate& want = kExpectedGates[i];
    EXPECT_EQ(gates[i].report, want.report);
    EXPECT_EQ(gates[i].rows, want.rows);
    EXPECT_EQ(gates[i].field, want.field);
    EXPECT_EQ(gates[i].higher_is_better, want.higher_is_better);
    EXPECT_EQ(gates[i].absolute, want.absolute);
    const common::JsonValue* rows = baseline.at(want.report).find(want.rows);
    ASSERT_NE(rows, nullptr) << want.report;
    std::size_t gated = 0;
    for (const common::JsonValue& row : rows->items()) {
      const std::string& name = row.string_at("name");
      for (const auto& [key, value] : row.members()) {
        if (!gated_column(want.field, key)) continue;
        ++gated;
        SCOPED_TRACE(want.report + " " + name + " " + key);
        EXPECT_EQ(named(seeded(baseline, want, value, true), Status::kFail),
                  Names{name + ":" + key});
        EXPECT_TRUE(obs::gates_pass(seeded(baseline, want, value, false)));
      }
    }
    EXPECT_GT(gated, 0u) << want.field << " gates no row of " << want.report;
    cases += gated;
  }
  // Every comparison the identity run makes is one seeded case above.
  EXPECT_EQ(named(identity, Status::kOk).size(), cases);
}

TEST(BenchCompare, EveryGatedReportFailsADroppedRowAndWarnsAnAddedOne) {
  const obs::ReportSet baseline = committed_baselines();
  for (const auto& [name, report] : baseline) {
    SCOPED_TRACE(name);
    const common::JsonValue* rows = nullptr;
    for (const obs::Gate& g : obs::bench_gates()) {
      if (g.report == name) rows = report.find(g.rows);
    }
    ASSERT_NE(rows, nullptr);
    const common::JsonValue& first = rows->items().front();
    const std::string& row = first.string_at("name");

    const auto dropped = obs::compare_reports(
        baseline, edited(baseline, name, &first, ""), obs::bench_gates());
    EXPECT_EQ(named(dropped, Status::kFail), Names{row});

    std::string grown = dump(*rows);
    grown.insert(grown.size() - 1,
                 "," + dump(first, first.find("name"), "\"added\""));
    const auto added = obs::compare_reports(
        baseline, edited(baseline, name, rows, grown), obs::bench_gates());
    EXPECT_TRUE(obs::gates_pass(added));
    EXPECT_EQ(named(added, Status::kWarn), Names{"added"});
  }
}

TEST(BenchCompare, MissingGatedReportFailsEitherSide) {
  const obs::ReportSet full = committed_baselines();
  for (const auto& [name, report] : full) {
    obs::ReportSet partial = full;
    partial.erase(name);
    for (const auto& verdicts :
         {obs::compare_reports(partial, full, obs::bench_gates()),
          obs::compare_reports(full, partial, obs::bench_gates())}) {
      ASSERT_EQ(named(verdicts, Status::kFail).size(), 1u) << name;
      for (const obs::GateVerdict& v : verdicts) {
        if (v.status == Status::kFail) {
          EXPECT_EQ(v.report, name);
        }
      }
    }
  }
}

// --- tools/check_bench_regression ---

int run_tool(const std::string& args) {
  const std::string command = std::string(PBPAIR_CHECK_BENCH_REGRESSION) +
                              " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchCompare, ToolChecksTheWholeTableAndRejectsUnknownFlags) {
  const std::string src = PBPAIR_SOURCE_DIR;
  const std::string both = "--baseline-dir " + src + " --current-dir " + src;
  EXPECT_EQ(run_tool(both), 0);
  // A misspelled or retired flag must fail loudly, not gate at defaults.
  EXPECT_EQ(run_tool(both + " --treshold 0.1"), 2);
  EXPECT_EQ(run_tool(both + " --threshold 0.25"), 2);
  EXPECT_EQ(run_tool(both + " --mode fec"), 2);
  EXPECT_EQ(run_tool("--baseline " + src + "/BENCH_fec.json --current " +
                     src + "/BENCH_fec.json"),
            2);
  EXPECT_EQ(run_tool("--baseline-dir " + src), 2);

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pbpair_bench_gate_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const char* report : {"BENCH_kernels.json", "BENCH_fec.json",
                             "BENCH_wire.json", "BENCH_obs.json"}) {
    fs::copy_file(src + "/" + report, dir / report,
                  fs::copy_options::overwrite_existing);
  }
  const std::string against = "--baseline-dir " + src + " --current-dir " +
                              dir.string();
  EXPECT_EQ(run_tool(against), 1);  // BENCH_sessions.json missing
  std::ofstream(dir / "BENCH_sessions.json") << "{\"sessions_rows\": [";
  EXPECT_EQ(run_tool(against), 2);  // malformed report
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pbpair
