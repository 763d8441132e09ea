// perfbench: the repository benchmark. Runs one named workload and prints
// its metrics; see README.md in this directory.
//
//   perfbench --workload paper_sweep|serve_fleet|live [--seed N]
//             [--seconds S] [--trace 0|1] [--commit ID] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the JSON result; the exit code is 1 when an
// output check failed and 2 on a usage or run error.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "layers.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

void write_trace(const Args& args, const Tracer& tracer, Report& report) {
  report.info("trace_spans", static_cast<double>(tracer.size()));
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (tracer.write_chrome_json(path)) report.info_text("trace_file", path);
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|serve_fleet|live "
               "[--seed N] [--seconds S] [--trace 0|1] [--commit ID] "
               "[--trace-dir DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || args->seconds < 1) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mark_process_start();
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  Report report(args);
  try {
    if (args.workload == "paper_sweep") {
      run_paper_sweep(args, report);
    } else if (args.workload == "serve_fleet") {
      run_serve_fleet(args, report);
    } else if (args.workload == "live") {
      run_live(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.trace) {
    std::string missing;
    for (const std::string& name : layer_metrics()) {
      if (!report.has(name)) missing += " " + name;
    }
    report.check(missing.empty(), "every per-layer metric measured" +
                                      (missing.empty() ? "" : ":" + missing));
    report.limit_result_to(layer_metrics());
  }
  return report.print();
}
