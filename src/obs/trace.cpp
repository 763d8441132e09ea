#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"

namespace pbpair::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  int tid;
  std::int64_t arg;
  const char* arg_name;
};

// Unbounded growth would turn long sweeps into memory leaks; past the cap
// spans are dropped (and counted) rather than evicted, so the trace always
// shows the run's beginning. Runtime-adjustable so tests can exercise the
// overflow path cheaply (set_trace_capacity).
constexpr std::size_t kDefaultMaxSpans = 1 << 20;
std::atomic<std::size_t> g_max_spans{kDefaultMaxSpans};

std::atomic<bool> g_capture{false};

bool recording() {
  return g_capture.load(std::memory_order_relaxed) && enabled();
}

std::mutex g_mutex;
std::vector<Span>& spans() {
  static std::vector<Span>* v = new std::vector<Span>();
  return *v;
}
std::map<int, std::string>& thread_names() {
  static std::map<int, std::string>* m = new std::map<int, std::string>();
  return *m;
}

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::atomic<int> g_next_tid{0};

int assign_thread_id() {
  thread_local int id = -1;
  if (id < 0) id = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              trace_epoch())
      .count();
}

int current_thread_id() { return assign_thread_id(); }

void set_thread_name(const std::string& name) {
  const int tid = assign_thread_id();
  std::lock_guard<std::mutex> lock(g_mutex);
  thread_names()[tid] = name;
}

bool trace_capture() { return g_capture.load(std::memory_order_relaxed); }

void set_trace_capture(bool on) {
  g_capture.store(on, std::memory_order_relaxed);
}

void record_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                 std::int64_t arg, const char* arg_name) {
  if (!recording()) return;
  const int tid = assign_thread_id();
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (spans().size() < g_max_spans.load(std::memory_order_relaxed)) {
      spans().push_back(Span{name, start_ns, dur_ns, tid, arg,
                             arg_name != nullptr ? arg_name : "i"});
      return;
    }
  }
  static Counter& dropped = counter("obs.trace.dropped");
  dropped.add(1);
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t arg,
                       const char* arg_name)
    : name_(name),
      arg_(arg),
      arg_name_(arg_name),
      start_ns_(recording() ? trace_now_ns() : -1) {}

ScopedSpan::~ScopedSpan() {
  if (start_ns_ < 0) return;
  record_span(name_, start_ns_, trace_now_ns() - start_ns_, arg_, arg_name_);
}

std::size_t trace_span_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return spans().size();
}

void set_trace_capacity(std::size_t max_spans) {
  g_max_spans.store(max_spans, std::memory_order_relaxed);
}

void clear_trace() {
  std::lock_guard<std::mutex> lock(g_mutex);
  spans().clear();
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mutex);

  // Span, thread, and arg names are caller-supplied: escape them all, or a
  // single quote in a name produces an unloadable trace.
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const auto& [tid, name] : thread_names()) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", tid,
                 common::json_escape(name).c_str());
    first = false;
  }
  for (const Span& span : spans()) {
    // Chrome's ts/dur are microseconds; fractional values keep ns detail.
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                 first ? "" : ",\n", common::json_escape(span.name).c_str(),
                 span.tid, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3);
    first = false;
    if (span.arg >= 0) {
      std::fprintf(f, ", \"args\": {\"%s\": %lld}",
                   common::json_escape(span.arg_name).c_str(),
                   static_cast<long long>(span.arg));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

}  // namespace pbpair::obs
