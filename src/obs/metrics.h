// Observability metrics: a process-wide registry of counters, gauges, and
// histograms, sharded per thread on the write path.
//
// Design rules (DESIGN.md §8, sharding in §14):
//  - Observability READS, it never perturbs. Nothing in this module feeds
//    back into codec, channel, or energy state, so enabling it cannot
//    change a single output byte (tests/test_obs.cpp asserts this).
//  - Everything is a runtime no-op unless enabled: callers guard hot-path
//    updates with `if (obs::enabled())`, which is one relaxed atomic load.
//    Enable with the PBPAIR_TRACE environment variable or set_enabled()
//    (the CLI's --trace flag). enabled() gates counters, gauges,
//    histograms and health; trace spans also need span capture, which is
//    on only when a trace file will be written (obs/trace.h).
//  - Writes are sharded: Counter/Histogram are small handles (registry +
//    dense id) whose add()/observe() land on a per-thread shard cell via a
//    thread-local pointer cache — one relaxed fetch_add, no lock, no
//    cacheline shared with any other thread. Shards are merged (summed)
//    only at read time (value(), snapshot(), to_json), so N threads
//    bumping the same counter never contend. Merging is an
//    order-independent sum, which keeps every deterministic output —
//    golden Prometheus text included — byte-identical at any thread
//    count. Gauges are last-writer-wins and stay a single central atomic.
//  - Output is deterministic: metrics are emitted sorted by name, and
//    histogram bucket layouts are fixed at compile time. Timing-valued
//    metrics (all histograms, gauges, and any metric named `*_ns`) can be
//    stripped so that two runs of the same seeded workload — at any thread
//    count, on any backend — produce byte-identical JSON.
//  - Registration takes a mutex but returns stable references (metrics are
//    never destroyed until process exit), so callers may cache `Counter*`
//    across calls — the cached handle still routes each add() to the
//    calling thread's own shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pbpair::obs {

class Registry;

/// True when observability is on. First call consults the PBPAIR_TRACE
/// environment variable (unset, empty, or "0" = off); set_enabled()
/// overrides at any time.
bool enabled();
void set_enabled(bool on);

/// Monotonic event count. add() is lock-free on the calling thread's
/// shard; value() merges all shards (takes the registry mutex — read
/// paths only).
class Counter {
 public:
  void add(std::uint64_t n = 1);
  std::uint64_t value() const;
  void reset();

 private:
  friend class Registry;
  Counter(Registry* owner, std::uint32_t id) : owner_(owner), id_(id) {}

  Registry* owner_;
  std::uint32_t id_;
};

/// Last-written value (thread-safe but last-writer-wins: gauges are for
/// serial contexts and are stripped from deterministic output). Gauges
/// are not sharded — a per-shard "last write" cannot be merged.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over a FIXED power-of-two nanosecond bucket layout: bucket i
/// counts observations with value < 2^(kFirstBucketLog2 + i) ns (the last
/// bucket is the overflow). The layout never depends on the data, so the
/// emitted shape is deterministic. observe() is lock-free on the calling
/// thread's shard; count()/sum()/bucket() merge all shards.
class Histogram {
 public:
  static constexpr int kFirstBucketLog2 = 8;  // first bound: 256 ns
  static constexpr int kBucketCount = 28;     // last bound: ~34 s, then +inf

  void observe(std::int64_t value_ns);

  std::uint64_t count() const;
  std::int64_t sum() const;
  std::uint64_t bucket(int i) const;
  void reset();

 private:
  friend class Registry;
  Histogram(Registry* owner, std::uint32_t id) : owner_(owner), id_(id) {}

  Registry* owner_;
  std::uint32_t id_;
};

/// Point-in-time copy of one histogram (bucket layout is the fixed
/// compile-time one; `buckets` holds per-bin counts, overflow last).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;
  std::vector<std::uint64_t> buckets;
};

/// Consistent copy of a registry's contents, sorted by name — what the
/// exporters (JSON, Prometheus) render from. Shards are merged under one
/// lock hold, so the snapshot is internally consistent.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Name -> metric map with per-thread write shards. Lookups take a mutex;
/// returned references are stable for the life of the registry, so hot
/// paths should look up once and cache the pointer.
class Registry {
 public:
  /// The process-wide registry every subsystem reports into.
  static Registry& global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every metric across every shard (registrations and cached
  /// pointers stay valid).
  void reset();

  /// reset() plus the process-wide trace buffer (obs/trace.h) — one call
  /// returns the whole observability layer to a blank slate. Test
  /// fixtures use this so metrics from one test cannot leak into the
  /// next's assertions.
  void reset_all();

  /// Copies every metric's current value, sorted by name, shards merged.
  RegistrySnapshot snapshot() const;

  /// JSON object with "counters" / "gauges" / "histograms" sections, keys
  /// sorted by name. With `deterministic` set, only counters survive and
  /// counters named `*_ns` are dropped — what remains is a pure function
  /// of the workload, independent of wall clock, thread count, or SIMD
  /// backend.
  std::string to_json(bool deterministic = false) const;

  /// Number of per-thread shards materialized so far (threads that have
  /// bumped at least one counter/histogram of this registry). Test-only
  /// introspection.
  std::size_t shard_count() const;

 private:
  friend class Counter;
  friend class Histogram;

  struct Shard;

  // Slow paths: take the mutex, materialize the calling thread's shard
  // cell for the metric id, refresh the thread-local cache, then apply
  // the update. Subsequent updates from the same thread hit the cache.
  void counter_add_slow(std::uint32_t id, std::uint64_t n);
  void hist_observe_slow(std::uint32_t id, int bucket, std::int64_t value_ns);

  Shard* shard_for_current_thread_locked();

  // Merged reads / resets (id-indexed, lock already held).
  std::uint64_t counter_value_locked(std::uint32_t id) const;
  std::uint64_t hist_count_locked(std::uint32_t id) const;
  std::int64_t hist_sum_locked(std::uint32_t id) const;
  std::uint64_t hist_bucket_locked(std::uint32_t id, int bucket) const;
  void reset_locked();

  std::uint64_t counter_value(std::uint32_t id) const;
  void counter_reset(std::uint32_t id);
  std::uint64_t hist_count(std::uint32_t id) const;
  std::int64_t hist_sum(std::uint32_t id) const;
  std::uint64_t hist_bucket(std::uint32_t id, int bucket) const;
  void hist_reset(std::uint32_t id);

  const std::uint64_t uid_;  // process-unique; keys the thread-local cache
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::uint32_t next_counter_id_ = 0;
  std::uint32_t next_hist_id_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Upper-bound estimate of the q-quantile (q in [0, 1]) of `hist` in
/// nanoseconds: walks the fixed log2 bucket layout until the cumulative
/// count covers q and returns that bucket's upper bound (the overflow
/// bucket reports twice the last finite bound). 0 when the histogram is
/// empty. Coarse by design — the layout doubles per bucket — but stable:
/// the same data always maps to the same bound, so benches can gate on it.
double histogram_quantile_ns(const Histogram& hist, double q);

/// Per-session metric name: "session.<label>.<metric>". Multi-session runs
/// (sim::SessionManager) register each stream's counters under this
/// namespace so the exported JSON can be broken down per session; labels
/// should be deterministic (e.g. "s007"), never derived from pointers or
/// scheduling order.
std::string session_metric(const std::string& label,
                           const std::string& metric);

/// Shorthands for Registry::global().
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::global().histogram(name);
}

}  // namespace pbpair::obs
