// Observability layer tests: registry/trace units, exporter validity, the
// JSON parser, and the layer's load-bearing invariant —
// enabling tracing must not change a single output byte (bitstreams, sim
// reports, energy figures) and deterministic metrics must be identical at
// any sweep thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/encoder.h"
#include "common/json.h"
#include "net/loss_model.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel_sweep.h"
#include "sim/pipeline.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

// Sets obs on or off and span capture (what naming a trace file does),
// restoring both on scope exit so tests don't leak tracing into each
// other.
class ScopedTracing {
 public:
  explicit ScopedTracing(bool on, bool capture = true)
      : prev_(obs::enabled()), prev_capture_(obs::trace_capture()) {
    obs::set_enabled(on);
    obs::set_trace_capture(capture);
  }
  ~ScopedTracing() {
    obs::set_enabled(prev_);
    obs::set_trace_capture(prev_capture_);
  }

 private:
  bool prev_;
  bool prev_capture_;
};

// Fixture for tests that touch the GLOBAL registry/trace buffer: wipes
// counters, gauges, histograms, and spans on both sides so the tests pass
// in any order and leave nothing behind (reset_all is the satellite API
// for exactly this).
class GlobalObs : public ::testing::Test {
 protected:
  void SetUp() override { obs::Registry::global().reset_all(); }
  void TearDown() override {
    obs::Registry::global().reset_all();
    obs::set_trace_capacity(std::size_t{1} << 20);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(ObsMetrics, CounterGaugeHistogramBasics) {
  // Counters/histograms are registry-owned handles (their adds land on
  // per-thread shards), so even "bare" metric tests go through a local
  // registry.
  obs::Registry registry;
  obs::Counter& c = registry.counter("basics.count");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);

  obs::Histogram& h = registry.histogram("basics.latency_ns");
  h.observe(100);            // < 256 -> bucket 0
  h.observe(300);            // < 512 -> bucket 1
  h.observe(std::int64_t{1} << 62);  // past every bound -> overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 100 + 300 + (std::int64_t{1} << 62));
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::kBucketCount), 1u);
}

TEST(ObsMetrics, HistogramQuantileReportsBucketUpperBounds) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("quantile.latency_ns");
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_ns(h, 0.99), 0.0) << "empty";

  // 99 observations in the 256..512 bucket, 1 in the 8192..16384 bucket:
  // p50 and p90 report the small bucket's upper bound, p100 the tail's.
  for (int i = 0; i < 99; ++i) h.observe(300);
  h.observe(10000);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_ns(h, 0.50), 512.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_ns(h, 0.90), 512.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_ns(h, 1.00), 16384.0);

  // Overflow observations report twice the last finite bound — a sentinel
  // for "beyond the instrumented range", not a measurement.
  h.observe(std::int64_t{1} << 62);
  EXPECT_DOUBLE_EQ(
      obs::histogram_quantile_ns(h, 1.00),
      static_cast<double>(
          std::uint64_t{1} << (obs::Histogram::kFirstBucketLog2 +
                               obs::Histogram::kBucketCount)));
}

TEST(ObsMetrics, ShardMergeMatchesSingleRegistryBitForBit) {
  // The tentpole invariant: N threads bumping per-thread shards must merge
  // into EXACTLY the state one thread produces — same counts, same
  // buckets, same rendered bytes — because every reader (snapshot, JSON,
  // Prometheus) sums shards in id order under one lock.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;

  obs::Registry sharded;
  obs::Counter& sc = sharded.counter("merge.count");
  obs::Histogram& sh = sharded.histogram("merge.latency_ns");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sc, &sh, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        sc.add(1);
        sh.observe(static_cast<std::int64_t>((i + std::uint64_t(t)) % 4096));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // One shard per writing thread (the main thread only read).
  EXPECT_EQ(sharded.shard_count(), static_cast<std::size_t>(kThreads));

  obs::Registry single;
  obs::Counter& oc = single.counter("merge.count");
  obs::Histogram& oh = single.histogram("merge.latency_ns");
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      oc.add(1);
      oh.observe(static_cast<std::int64_t>((i + std::uint64_t(t)) % 4096));
    }
  }

  EXPECT_EQ(sc.value(), oc.value());
  EXPECT_EQ(sh.count(), oh.count());
  EXPECT_EQ(sh.sum(), oh.sum());
  for (int b = 0; b <= obs::Histogram::kBucketCount; ++b) {
    EXPECT_EQ(sh.bucket(b), oh.bucket(b)) << "bucket " << b;
  }
  EXPECT_EQ(sharded.to_json(false), single.to_json(false));
  EXPECT_EQ(sharded.to_json(true), single.to_json(true));

  // reset() zeroes every shard, not just the merged view.
  sharded.reset();
  EXPECT_EQ(sc.value(), 0u);
  EXPECT_EQ(sh.count(), 0u);
}

TEST(ObsMetrics, RegistryReferencesAreStableAcrossLookups) {
  obs::Registry registry;
  obs::Counter& first = registry.counter("stable.test");
  registry.counter("stable.other").add(7);
  obs::Counter& second = registry.counter("stable.test");
  EXPECT_EQ(&first, &second);
  first.add(3);
  EXPECT_EQ(second.value(), 3u);
  registry.reset();
  EXPECT_EQ(first.value(), 0u);            // zeroed, not destroyed
  EXPECT_EQ(&registry.counter("stable.test"), &first);
}

TEST(ObsMetrics, JsonIsSortedAndDeterministicModeStripsTimingMetrics) {
  obs::Registry registry;
  registry.counter("zeta.count").add(2);
  registry.counter("alpha.count").add(1);
  registry.counter("alpha.busy_ns").add(12345);  // *_ns: timing-valued
  registry.gauge("some.ratio").set(0.5);
  registry.histogram("some.latency_ns").observe(400);

  common::JsonValue full;
  std::string error;
  ASSERT_TRUE(common::JsonValue::parse(registry.to_json(false), &full, &error))
      << error;
  ASSERT_NE(full.find("counters"), nullptr);
  EXPECT_EQ(full.find("counters")->number_at("alpha.count", -1), 1.0);
  EXPECT_EQ(full.find("counters")->number_at("alpha.busy_ns", -1), 12345.0);
  EXPECT_EQ(full.find("gauges")->number_at("some.ratio", -1), 0.5);
  const common::JsonValue* hist =
      full.find("histograms")->find("some.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_at("count", -1), 1.0);
  EXPECT_EQ(hist->number_at("sum_ns", -1), 400.0);
  EXPECT_EQ(hist->find("buckets")->size(),
            static_cast<std::size_t>(obs::Histogram::kBucketCount + 1));

  common::JsonValue det;
  ASSERT_TRUE(
      common::JsonValue::parse(registry.to_json(true), &det, &error))
      << error;
  EXPECT_EQ(det.find("counters")->number_at("zeta.count", -1), 2.0);
  EXPECT_EQ(det.find("counters")->find("alpha.busy_ns"), nullptr);
  EXPECT_EQ(det.find("gauges"), nullptr);
  EXPECT_EQ(det.find("histograms"), nullptr);

  // Sorted emission: "alpha.count" appears before "zeta.count" in the raw
  // text, so two identically-populated registries emit identical bytes.
  std::string text = registry.to_json(true);
  EXPECT_LT(text.find("alpha.count"), text.find("zeta.count"));
}

TEST_F(GlobalObs, ResetAllClearsCountersGaugesHistogramsAndSpans) {
  ScopedTracing tracing(true);
  obs::counter("reset.count").add(5);
  obs::gauge("reset.ratio").set(0.5);
  obs::histogram("reset.latency_ns").observe(300);
  obs::record_span("reset.span", 0, 10);
  EXPECT_EQ(obs::trace_span_count(), 1u);

  obs::Registry::global().reset_all();
  EXPECT_EQ(obs::counter("reset.count").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("reset.ratio").value(), 0.0);
  EXPECT_EQ(obs::histogram("reset.latency_ns").count(), 0u);
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST_F(GlobalObs, SnapshotCopiesAllMetricKindsSorted) {
  obs::counter("snap.zeta").add(2);
  obs::counter("snap.alpha").add(1);
  obs::gauge("snap.ratio").set(0.25);
  obs::histogram("snap.latency_ns").observe(300);

  obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                             by_name));
  EXPECT_TRUE(std::is_sorted(snap.gauges.begin(), snap.gauges.end(), by_name));

  // reset_all() zeroes metrics but keeps their registrations, so metrics
  // that earlier tests in the same process registered sit beside these.
  auto is_snap = [](const std::string& name) {
    return name.rfind("snap.", 0) == 0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const auto& c : snap.counters) {
    if (is_snap(c.first)) counters.push_back(c);
  }
  std::vector<std::pair<std::string, double>> gauges;
  for (const auto& g : snap.gauges) {
    if (is_snap(g.first)) gauges.push_back(g);
  }
  std::vector<obs::HistogramSnapshot> histograms;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (is_snap(h.name)) histograms.push_back(h);
  }
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "snap.alpha");  // sorted
  EXPECT_EQ(counters[1].first, "snap.zeta");
  EXPECT_EQ(counters[1].second, 2u);
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 0.25);
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].count, 1u);
  EXPECT_EQ(histograms[0].sum_ns, 300);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ScopedTracing tracing(false);
  obs::clear_trace();
  {
    obs::ScopedSpan span("test.disabled");
  }
  obs::record_span("test.disabled", 0, 10);
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST(ObsTrace, ScopedTracingRestoresCaptureState) {
  const bool before = obs::trace_capture();
  {
    ScopedTracing outer(true, /*capture=*/false);
    EXPECT_FALSE(obs::trace_capture());
    {
      ScopedTracing inner(true);
      EXPECT_TRUE(obs::trace_capture());
    }
    EXPECT_FALSE(obs::trace_capture());
  }
  EXPECT_EQ(obs::trace_capture(), before);
}

TEST(ObsTrace, ChromeExportIsValidTraceEventJson) {
  ScopedTracing tracing(true);
  obs::clear_trace();
  obs::set_thread_name("test-main");
  {
    obs::ScopedSpan span("test.outer", 7, "frame");
    obs::record_span("test.inner", obs::trace_now_ns(), 1000);
  }
  ASSERT_EQ(obs::trace_span_count(), 2u);

  const std::string path = temp_path("trace_test.json");
  ASSERT_TRUE(obs::write_chrome_trace(path));
  common::JsonValue doc;
  std::string error;
  ASSERT_TRUE(common::parse_json_file(path, &doc, &error)) << error;
  const common::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int metadata = 0, durations = 0;
  bool saw_outer_arg = false;
  for (const common::JsonValue& event : events->items()) {
    const std::string& ph = event.string_at("ph");
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.string_at("name"), "thread_name");
    } else if (ph == "X") {
      ++durations;
      EXPECT_GE(event.number_at("dur", -1), 0.0);
      if (event.string_at("name") == "test.outer") {
        const common::JsonValue* args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->number_at("frame", -1), 7.0);
        saw_outer_arg = true;
      }
    }
  }
  EXPECT_GE(metadata, 1);
  EXPECT_EQ(durations, 2);
  EXPECT_TRUE(saw_outer_arg);
  std::remove(path.c_str());
}

TEST_F(GlobalObs, ChromeExportEscapesHostileSpanAndThreadNames) {
  ScopedTracing tracing(true);
  obs::set_thread_name("evil\"thread\\name\nwith\tcontrol");
  // Span names must be string literals (they are stored by pointer); this
  // one carries every class of character the exporter must escape.
  obs::record_span("span\"with\\quotes\nand\x01" "control", 0, 10);
  ASSERT_EQ(obs::trace_span_count(), 1u);

  const std::string path = temp_path("trace_hostile.json");
  ASSERT_TRUE(obs::write_chrome_trace(path));
  common::JsonValue doc;
  std::string error;
  ASSERT_TRUE(common::parse_json_file(path, &doc, &error))
      << "hostile names must not break the JSON: " << error;
  bool saw_span = false, saw_thread = false;
  for (const common::JsonValue& event : doc.find("traceEvents")->items()) {
    if (event.string_at("ph") == "X" &&
        event.string_at("name") == "span\"with\\quotes\nand\x01" "control") {
      saw_span = true;
    }
    if (event.string_at("ph") == "M") {
      const common::JsonValue* args = event.find("args");
      if (args != nullptr &&
          args->string_at("name") == "evil\"thread\\name\nwith\tcontrol") {
        saw_thread = true;
      }
    }
  }
  EXPECT_TRUE(saw_span);   // round-trips through escape + parse
  EXPECT_TRUE(saw_thread);
  std::remove(path.c_str());
}

TEST_F(GlobalObs, SpanBufferOverflowDropsAndCounts) {
  ScopedTracing tracing(true);
  obs::set_trace_capacity(4);
  for (int i = 0; i < 10; ++i) obs::record_span("overflow.span", i, 1);
  EXPECT_EQ(obs::trace_span_count(), 4u);  // buffer stays bounded
  EXPECT_EQ(obs::counter("obs.trace.dropped").value(), 6u);

  // The exported trace still writes (truncated, not corrupt).
  const std::string path = temp_path("trace_overflow.json");
  ASSERT_TRUE(obs::write_chrome_trace(path));
  common::JsonValue doc;
  ASSERT_TRUE(common::parse_json_file(path, &doc));
  std::remove(path.c_str());
}

TEST(ObsInvariant, TracingDoesNotChangeEncoderBitstream) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  const int frames = 6;

  auto encode_all = [&seq, frames] {
    codec::EncoderConfig config;
    config.qp = 10;
    codec::NoRefreshPolicy policy;
    codec::Encoder encoder(config, &policy);
    std::vector<std::vector<std::uint8_t>> streams;
    for (int i = 0; i < frames; ++i) {
      streams.push_back(encoder.encode_frame(seq.frame_at(i)).bytes);
    }
    return streams;
  };

  std::vector<std::vector<std::uint8_t>> off, metrics, captured;
  {
    ScopedTracing tracing(false);
    off = encode_all();
  }
  {
    // Metrics on, no trace file named: no span is recorded.
    ScopedTracing tracing(true, /*capture=*/false);
    obs::clear_trace();
    metrics = encode_all();
    EXPECT_EQ(obs::trace_span_count(), 0u);
  }
  {
    ScopedTracing tracing(true);
    obs::clear_trace();
    captured = encode_all();
    EXPECT_GT(obs::trace_span_count(), 0u);  // tracing really was on
  }
  for (const auto* on : {&metrics, &captured}) {
    ASSERT_EQ(off.size(), on->size());
    for (std::size_t i = 0; i < off.size(); ++i) {
      EXPECT_EQ(off[i], (*on)[i])
          << "frame " << i << " bitstream changed with tracing enabled";
    }
  }
}

// Everything a report is built from, rendered with %.17g so a single bit
// of drift fails the comparison.
std::string digest(const sim::PipelineResult& r) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%llu %.17g %llu %llu %llu %.17g %.17g\n",
                static_cast<unsigned long long>(r.total_bytes), r.avg_psnr_db,
                static_cast<unsigned long long>(r.total_bad_pixels),
                static_cast<unsigned long long>(r.total_intra_mbs),
                static_cast<unsigned long long>(r.concealed_mbs),
                r.encode_energy.total_j(), r.tx_energy_j);
  out += buf;
  for (const sim::FrameTrace& f : r.frames) {
    std::snprintf(buf, sizeof(buf), "%d %zu %d %d %.17g %llu\n", f.index,
                  f.bytes, f.intra_mbs, f.lost ? 1 : 0, f.psnr_db,
                  static_cast<unsigned long long>(f.bad_pixels));
    out += buf;
  }
  return out;
}

sim::PipelineConfig small_pipeline_config(int frames) {
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.encoder.search.range = 4;
  return config;
}

TEST(ObsInvariant, TracingDoesNotChangePipelineReportOrEnergy) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  sim::PipelineConfig config = small_pipeline_config(8);

  auto run_once = [&] {
    net::UniformFrameLoss loss(0.10, /*seed=*/2005);
    return sim::run_pipeline(seq, sim::SchemeSpec::pbpair(pbpair), &loss,
                             config);
  };

  std::string off_digest, metrics_digest, captured_digest;
  {
    ScopedTracing tracing(false);
    off_digest = digest(run_once());
  }
  {
    ScopedTracing tracing(true, /*capture=*/false);
    obs::clear_trace();
    metrics_digest = digest(run_once());
    EXPECT_EQ(obs::trace_span_count(), 0u);
  }
  {
    ScopedTracing tracing(true);
    obs::clear_trace();
    captured_digest = digest(run_once());
    EXPECT_GT(obs::trace_span_count(), 0u);
  }
  EXPECT_EQ(off_digest, metrics_digest);
  EXPECT_EQ(off_digest, captured_digest);
}

TEST_F(GlobalObs, DeterministicMetricsIdenticalAt1_2_8SweepThreads) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  std::vector<video::YuvFrame> clip;
  for (int i = 0; i < 8; ++i) clip.push_back(seq.frame_at(i));

  std::vector<sim::SweepTask> tasks;
  for (int t = 0; t < 5; ++t) {
    sim::SweepTask task;
    task.scheme = t % 2 == 0 ? sim::SchemeSpec::gop(3) : sim::SchemeSpec::air(24);
    task.config = small_pipeline_config(static_cast<int>(clip.size()));
    task.source = [&clip](int i) { return clip[static_cast<std::size_t>(i)]; };
    task.make_loss = [] {
      return std::make_unique<net::UniformFrameLoss>(0.10, /*seed=*/2005);
    };
    tasks.push_back(std::move(task));
  }

  ScopedTracing tracing(true);
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    obs::Registry::global().reset();
    obs::clear_trace();
    sim::SweepOptions options;
    options.threads = threads;
    sim::run_parallel_sweep(tasks, options);
    std::string metrics = obs::Registry::global().to_json(/*deterministic=*/true);
    if (threads == 1) {
      baseline = metrics;
      // The deterministic output must actually contain workload counters.
      EXPECT_NE(baseline.find("encoder.frames"), std::string::npos);
      EXPECT_NE(baseline.find("session.s000.frames"), std::string::npos);
      EXPECT_NE(baseline.find("net.packets_sent"), std::string::npos);
      EXPECT_EQ(baseline.find("_ns"), std::string::npos);
    } else {
      EXPECT_EQ(baseline, metrics) << "thread count " << threads;
    }
  }
  obs::Registry::global().reset();
}

// Metrics without a trace file (pbpair serve --metrics-port, perfbench's
// serve_fleet) publish every counter but buffer no span: nothing would
// ever export one.
TEST_F(GlobalObs, MetricsWithoutATraceRecordNoSpans) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  std::vector<sim::SweepTask> tasks;
  for (int t = 0; t < 4; ++t) {
    sim::SweepTask task;
    task.scheme = sim::SchemeSpec::pbpair(pbpair);
    task.config = small_pipeline_config(6);
    task.config.health = obs::HealthConfig{};
    task.source = [&seq](int i) { return seq.frame_at(i); };
    task.make_loss = [t] {
      return std::make_unique<net::UniformFrameLoss>(0.10, 2005 + t);
    };
    tasks.push_back(std::move(task));
  }

  ScopedTracing tracing(true, /*capture=*/false);
  sim::SweepOptions options;
  options.threads = 2;
  sim::run_parallel_sweep(tasks, options);
  EXPECT_EQ(obs::counter("encoder.frames").value(), 24u);
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST(ObsPipeline, FrameTraceJsonlIsDeterministicAndParses) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  sim::PipelineConfig config = small_pipeline_config(5);
  const std::string path = temp_path("frame_trace.jsonl");
  config.frame_trace_path = path;

  auto run_once = [&] {
    net::UniformFrameLoss loss(0.20, /*seed=*/7);
    sim::run_pipeline(seq, sim::SchemeSpec::gop(3), &loss, config);
    return read_file(path);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);  // no clocks leak into the frame trace

  std::istringstream lines(first);
  std::string line;
  int rows = 0;
  bool saw_header = false;
  while (std::getline(lines, line)) {
    common::JsonValue row;
    std::string error;
    ASSERT_TRUE(common::JsonValue::parse(line, &row, &error)) << error;
    if (!saw_header) {
      // First line is the header: scheme label, seed, and geometry.
      saw_header = true;
      const common::JsonValue* header = row.find("header");
      ASSERT_NE(header, nullptr);
      EXPECT_EQ(header->string_at("scheme"), "GOP-3");
      EXPECT_NE(header->find("seed"), nullptr);
      EXPECT_EQ(header->number_at("width", -1), config.encoder.width);
      EXPECT_EQ(header->number_at("height", -1), config.encoder.height);
      EXPECT_EQ(header->number_at("frames", -1), config.frames);
      continue;
    }
    EXPECT_EQ(row.number_at("frame", -1), rows);
    EXPECT_NE(row.find("type"), nullptr);
    EXPECT_NE(row.find("bytes"), nullptr);
    EXPECT_NE(row.find("psnr_db"), nullptr);
    EXPECT_NE(row.find("lost"), nullptr);
    ++rows;
  }
  EXPECT_TRUE(saw_header);
  EXPECT_EQ(rows, config.frames);
  std::remove(path.c_str());
}

TEST(Json, ParserHandlesCoreGrammarAndRejectsGarbage) {
  common::JsonValue v;
  std::string error;
  ASSERT_TRUE(common::JsonValue::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "q\"A", "n": null})",
      &v, &error))
      << error;
  EXPECT_EQ(v.find("a")->size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->at(2).as_number(), -300.0);
  EXPECT_TRUE(v.find("b")->find("nested")->as_bool());
  EXPECT_EQ(v.string_at("s"), "q\"A");
  EXPECT_TRUE(v.find("n")->is_null());

  EXPECT_FALSE(common::JsonValue::parse("{\"unterminated\": ", &v));
  EXPECT_FALSE(common::JsonValue::parse("[1, 2,]", &v));
  EXPECT_FALSE(common::JsonValue::parse("{} trailing", &v));
}

}  // namespace
}  // namespace pbpair
