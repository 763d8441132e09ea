#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pbpair::bench {

int bench_frames() {
  const char* env = std::getenv("PBPAIR_BENCH_FRAMES");
  if (env != nullptr) {
    int frames = std::atoi(env);
    if (frames >= 10) return frames;
  }
  return 300;
}

const std::vector<video::YuvFrame>& cached_clip(video::SequenceKind kind,
                                                int frames) {
  // Sweep tasks resolve their clips concurrently; the mutex makes the
  // lazy fill safe. Returned references stay valid (values are never
  // erased, and node-based map inserts don't move existing values).
  static std::mutex mutex;
  static std::map<std::pair<int, int>, std::vector<video::YuvFrame>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(static_cast<int>(kind), frames);
  auto it = cache.find(key);
  if (it == cache.end()) {
    video::SyntheticSequence seq = video::make_paper_sequence(kind);
    std::vector<video::YuvFrame> clip;
    clip.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i) clip.push_back(seq.frame_at(i));
    it = cache.emplace(key, std::move(clip)).first;
  }
  return it->second;
}

sim::FrameSource clip_source(video::SequenceKind kind, int frames) {
  const std::vector<video::YuvFrame>& clip = cached_clip(kind, frames);
  return [&clip](int i) { return clip[static_cast<std::size_t>(i)]; };
}

sim::PipelineConfig paper_pipeline_config(int frames) {
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;
  return config;
}

std::vector<double> calibrate_pbpair_to_size(
    std::vector<sim::SizeTarget> targets, double plr) {
  // Calibrate on a 100-frame prefix: per-frame size is stationary, so the
  // matching threshold transfers to the full run (and the bisection stays
  // affordable: 8 encode passes per clip).
  const int frames = std::min(bench_frames(), 100);
  const double scale =
      static_cast<double>(frames) / static_cast<double>(bench_frames());
  for (sim::SizeTarget& target : targets) {
    target.target_bytes = static_cast<std::uint64_t>(
        static_cast<double>(target.target_bytes) * scale);
  }
  core::PbpairConfig pbpair;
  pbpair.plr = plr;
  return sim::calibrate_intra_th(targets, pbpair,
                                 paper_pipeline_config(frames),
                                 /*iterations=*/8);
}

void maybe_write_csv(const sim::Table& table, const std::string& name) {
  const char* dir = std::getenv("PBPAIR_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  table.print_csv(f);
  std::fclose(f);
  std::printf("(csv written to %s)\n", path.c_str());
}

void enable_observability(const char* bench_name) {
  obs::set_enabled(true);
  obs::set_trace_capture(std::getenv("PBPAIR_TRACE_JSON") != nullptr);
  obs::set_thread_name(std::string("bench-") + bench_name);
}

std::string table_to_json(const sim::Table& table) {
  // Cells are emitted as strings exactly as formatted for the text table;
  // the report is for humans and regression diffs, not for re-computation.
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::string json = "[";
  for (std::size_t r = 0; r < table.rows().size(); ++r) {
    const std::vector<std::string>& row = table.rows()[r];
    json += r == 0 ? "\n      {" : ",\n      {";
    for (std::size_t c = 0; c < table.header().size() && c < row.size(); ++c) {
      if (c > 0) json += ", ";
      json += "\"" + escape(table.header()[c]) + "\": \"" + escape(row[c]) +
              "\"";
    }
    json += "}";
  }
  json += "\n    ]";
  return json;
}

void write_json_report(const std::string& name,
                       const std::string& payload_fields) {
  const char* path_env = std::getenv("PBPAIR_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  %s,\n  \"metrics\": %s\n}\n",
               name.c_str(), payload_fields.c_str(),
               obs::Registry::global().to_json(false).c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  const char* trace_path = std::getenv("PBPAIR_TRACE_JSON");
  if (trace_path != nullptr) {
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("wrote %s (%zu spans)\n", trace_path,
                  obs::trace_span_count());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
    }
  }
}

sim::PipelineResult run_clip(video::SequenceKind kind,
                             const sim::SchemeSpec& scheme,
                             net::LossModel* loss,
                             const sim::PipelineConfig& config) {
  return sim::run_pipeline(clip_source(kind, config.frames), scheme, loss,
                           config);
}

sim::SweepTask clip_task(
    video::SequenceKind kind, const sim::SchemeSpec& scheme,
    const sim::PipelineConfig& config,
    std::function<std::unique_ptr<net::LossModel>()> make_loss) {
  sim::SweepTask task;
  task.scheme = scheme;
  task.config = config;
  task.source = clip_source(kind, config.frames);
  task.make_loss = std::move(make_loss);
  return task;
}

}  // namespace pbpair::bench
