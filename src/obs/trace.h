// Lightweight trace spans with a Chrome trace-event exporter.
//
// A ScopedSpan records (name, start, duration, thread) into a process-wide
// buffer when observability is enabled (obs/metrics.h); when disabled its
// constructor is a single relaxed load and nothing is recorded. Spans never
// influence the traced code — they only read the clock.
//
// Threads get small stable ids in first-use order plus an optional
// human-readable name (the sweep's pool workers register theirs), and the
// exporter writes one Chrome track per thread: load the file in
// chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <string>

namespace pbpair::obs {

/// Nanoseconds on the steady clock since the first observability use in
/// this process (a stable epoch keeps trace timestamps small).
std::int64_t trace_now_ns();

/// Small dense id for the calling thread, assigned on first use.
int current_thread_id();

/// Names the calling thread's track in the exported trace (idempotent).
void set_thread_name(const std::string& name);

/// Appends one complete span. `name` must outlive the trace buffer (string
/// literals only). When `arg` >= 0 it is exported as args:{<arg_name>: arg}
/// (arg_name defaults to "i"). The buffer is bounded; spans past the cap
/// are dropped and counted in the `obs.trace.dropped` counter.
void record_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                 std::int64_t arg = -1, const char* arg_name = nullptr);

/// RAII span: records [construction, destruction) when enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t arg = -1,
                      const char* arg_name = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  const char* arg_name_;
  std::int64_t start_ns_;  // < 0: disabled at construction, record nothing
};

/// Number of spans currently buffered.
std::size_t trace_span_count();

/// Overrides the bounded span-buffer capacity (default 1<<20). Existing
/// spans past a smaller cap are kept; only NEW spans are dropped (and
/// counted). Tests use a tiny cap to exercise the overflow path without
/// recording a million spans.
void set_trace_capacity(std::size_t max_spans);

/// Drops all buffered spans (thread ids/names are kept).
void clear_trace();

/// Writes the buffered spans in Chrome trace-event JSON ("traceEvents"
/// with "X" duration events, one "M" thread_name metadata event per
/// thread). Returns false when the file cannot be opened.
bool write_chrome_trace(const std::string& path);

}  // namespace pbpair::obs
