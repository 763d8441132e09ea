// In-memory span recorder for the traced runs. Spans are opened and closed
// by the benchmark around its own calls into each layer, kept in memory
// while the workload runs, and written out once at the end. One Tracer
// belongs to one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Opens a span named `name` (a string literal) under the innermost open
  /// span; `trace_id` ties together the spans of one stream frame.
  std::size_t begin(const char* name, std::uint64_t trace_id);
  void end(std::size_t span);

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t trace_id)
        : tracer_(tracer), span_(tracer.begin(name, trace_id)) {}
    ~Scope() { tracer_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t span_;
  };

  struct Layer {
    double total_ns = 0.0;  // summed span durations
    double self_ns = 0.0;   // minus the time child spans cover
    std::uint64_t count = 0;
  };
  /// Totals per span name.
  std::map<std::string, Layer> layers() const;

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (loads in chrome://tracing and Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t parent;  // index into spans_, -1 for a root
    std::uint64_t trace_id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Trace id of frame `frame` of stream `stream`.
inline std::uint64_t frame_trace_id(std::uint64_t stream, int frame) {
  return (stream << 32) | static_cast<std::uint32_t>(frame);
}

}  // namespace perfbench
