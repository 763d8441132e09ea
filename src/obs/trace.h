// Lightweight trace spans with a Chrome trace-event exporter.
//
// A ScopedSpan records (name, start, duration, thread) into a process-wide
// buffer only while observability is enabled (obs/metrics.h) AND span
// capture is on. Capture stays off unless the process will write the
// trace (pbpair simulate --trace-json, a bench with $PBPAIR_TRACE_JSON
// set), so a metrics-only run such as a long `pbpair serve --metrics-port`
// grows no buffer that nothing reads. When not recording, the constructor
// is a relaxed load or two and nothing is recorded. Spans never influence
// the traced code — they only read the clock.
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

/// Span capture: off by default. Turn it on only when the process will
/// export the buffer with write_chrome_trace().
bool trace_capture();
void set_trace_capture(bool on);

/// Appends one complete span when enabled() and trace_capture() hold.
/// `name` must outlive the trace buffer (string literals only). When
/// `arg` >= 0 it is exported as args:{<arg_name>: arg} (arg_name defaults
/// to "i"). The buffer is bounded; spans past the cap are dropped and
/// counted in the `obs.trace.dropped` counter.
void record_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                 std::int64_t arg = -1, const char* arg_name = nullptr);

/// RAII span: records [construction, destruction) when enabled() and
/// trace_capture() hold at construction.
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
  std::int64_t start_ns_;  // < 0: not recording at construction
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
