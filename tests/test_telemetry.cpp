// Live-telemetry tests (DESIGN.md §10): the health state machine and its
// hysteresis, the perturbation-free invariant (health tracking on vs off
// is byte-identical), the Prometheus renderer (golden file + round-trip),
// the HTTP exporter, and the structured log stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "net/loss_model.h"
#include "obs/health.h"
#include "obs/http_exporter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "sim/pipeline.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// --- health state machine ------------------------------------------------

obs::FrameHealthSample sample_with_plr(double plr, double psnr_db = 40.0) {
  obs::FrameHealthSample s;
  s.psnr_db = psnr_db;
  s.bytes = 1000;
  s.packets_sent = 100;
  s.packets_delivered =
      static_cast<std::uint32_t>(100.5 - plr * 100.0);  // round
  s.intra_mbs = 10;
  s.total_mbs = 99;
  s.energy_j = 0.004;
  return s;
}

TEST(Health, WarmupHoldsHealthyThenEscalatesImmediately) {
  obs::HealthConfig config;
  config.window_frames = 4;
  config.warmup_frames = 3;
  obs::SessionHealth health("t0", config);

  // Warmup: terrible PLR must not trip the state machine yet.
  health.on_frame(sample_with_plr(1.0));
  health.on_frame(sample_with_plr(1.0));
  EXPECT_EQ(health.snapshot().state, obs::HealthState::kHealthy);

  // First post-warmup frame: windowed PLR is way past critical-enter, and
  // escalation skips DEGRADED entirely (one transition, not two).
  health.on_frame(sample_with_plr(1.0));
  obs::HealthSnapshot snap = health.snapshot();
  EXPECT_EQ(snap.state, obs::HealthState::kCritical);
  EXPECT_EQ(snap.transitions, 1u);
  EXPECT_NEAR(snap.eff_plr, 1.0, 1e-12);
}

TEST(Health, DeEscalationIsStepwiseWithHysteresis) {
  obs::HealthConfig config;
  config.window_frames = 3;
  config.warmup_frames = 0;
  obs::SessionHealth health("t1", config);

  for (int i = 0; i < 3; ++i) health.on_frame(sample_with_plr(0.5));
  ASSERT_EQ(health.snapshot().state, obs::HealthState::kCritical);

  // Perfect frames flush the window; recovery must pass through DEGRADED
  // (critical -> degraded on one frame, degraded -> healthy on a later
  // one), never jump straight back.
  std::vector<obs::HealthState> states;
  for (int i = 0; i < 4; ++i) {
    health.on_frame(sample_with_plr(0.0));
    states.push_back(health.snapshot().state);
  }
  EXPECT_EQ(states.front(), obs::HealthState::kCritical);  // window not clean
  ASSERT_EQ(states.back(), obs::HealthState::kHealthy);
  bool saw_degraded = false;
  for (obs::HealthState s : states) {
    if (s == obs::HealthState::kDegraded) saw_degraded = true;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_EQ(health.snapshot().transitions, 3u);  // up, down, down
}

TEST(Health, HoversInsideHysteresisBandWithoutFlapping) {
  obs::HealthConfig config;
  config.window_frames = 5;
  config.warmup_frames = 0;
  obs::SessionHealth health("t2", config);

  // 20% loss: enters DEGRADED (>= 0.10), stays below critical (0.25).
  for (int i = 0; i < 5; ++i) health.on_frame(sample_with_plr(0.2));
  ASSERT_EQ(health.snapshot().state, obs::HealthState::kDegraded);
  const std::uint64_t transitions = health.snapshot().transitions;

  // 8% loss sits between degraded-exit (0.07) and degraded-enter (0.10):
  // the state must hold, with zero further transitions.
  for (int i = 0; i < 10; ++i) {
    health.on_frame(sample_with_plr(0.08));
    EXPECT_EQ(health.snapshot().state, obs::HealthState::kDegraded);
  }
  EXPECT_EQ(health.snapshot().transitions, transitions);

  // Clean frames push the window under 0.07: now it recovers.
  for (int i = 0; i < 5; ++i) health.on_frame(sample_with_plr(0.0));
  EXPECT_EQ(health.snapshot().state, obs::HealthState::kHealthy);
}

TEST(Health, PsnrThresholdsDriveStateToo) {
  obs::HealthConfig config;
  config.window_frames = 3;
  config.warmup_frames = 0;
  obs::SessionHealth health("t3", config);

  for (int i = 0; i < 3; ++i) health.on_frame(sample_with_plr(0.0, 23.0));
  EXPECT_EQ(health.snapshot().state, obs::HealthState::kCritical)
      << "PSNR below critical-enter (24 dB) must escalate";
  // 25 dB is above critical-exit (26)? No: 25 < 26, still critical.
  for (int i = 0; i < 3; ++i) health.on_frame(sample_with_plr(0.0, 25.0));
  EXPECT_EQ(health.snapshot().state, obs::HealthState::kCritical);
  // 40 dB clears both exits.
  for (int i = 0; i < 3; ++i) health.on_frame(sample_with_plr(0.0, 40.0));
  health.on_frame(sample_with_plr(0.0, 40.0));
  EXPECT_EQ(health.snapshot().state, obs::HealthState::kHealthy);
}

TEST(Health, OnFrameReturnsTheSnapshotAfterTheFrame) {
  obs::HealthConfig config;
  config.window_frames = 2;
  config.warmup_frames = 1;
  obs::SessionHealth health("ret", config);
  const obs::HealthSnapshot first = health.on_frame(sample_with_plr(0.0));
  EXPECT_EQ(first.state, obs::HealthState::kHealthy);
  EXPECT_EQ(first.frames, 1u);
  EXPECT_EQ(first.transitions, 0u);

  // The returned snapshot already shows the edge this frame caused, and
  // matches what snapshot() reads afterwards.
  const obs::HealthSnapshot second = health.on_frame(sample_with_plr(0.3));
  EXPECT_EQ(second.state, obs::HealthState::kDegraded);
  EXPECT_EQ(second.frames, 2u);
  EXPECT_EQ(second.transitions, 1u);
  EXPECT_NEAR(second.eff_plr, 0.15, 1e-12);
  const obs::HealthSnapshot read = health.snapshot();
  EXPECT_EQ(read.state, second.state);
  EXPECT_EQ(read.frames, second.frames);
  EXPECT_EQ(read.transitions, second.transitions);
  EXPECT_EQ(read.eff_plr, second.eff_plr);
  EXPECT_EQ(read.psnr_ewma_db, second.psnr_ewma_db);
  EXPECT_EQ(read.projected_lifetime_s, second.projected_lifetime_s);
}

TEST(Health, EnergyEstimatorsProjectLifetime) {
  obs::HealthConfig config;
  config.window_frames = 4;
  config.frame_rate_hz = 30.0;
  config.battery_capacity_j = 100.0;
  obs::SessionHealth health("en", config);
  for (int i = 0; i < 4; ++i) health.on_frame(sample_with_plr(0.0));
  obs::HealthSnapshot snap = health.snapshot();
  EXPECT_NEAR(snap.energy_j_per_frame, 0.004, 1e-12);
  EXPECT_NEAR(snap.battery_remaining_j, 100.0 - 4 * 0.004, 1e-9);
  // remaining / (J/frame * fps)
  EXPECT_NEAR(snap.projected_lifetime_s, snap.battery_remaining_j / 0.12,
              1e-6);
  EXPECT_NEAR(snap.intra_ratio, 10.0 / 99.0, 1e-12);
}

TEST(Health, RegistryRendersHealthzJson) {
  obs::HealthRegistry registry;
  auto a = registry.create("s\"one", obs::HealthConfig{});
  auto b = registry.create("s-two", obs::HealthConfig{});
  a->on_frame(sample_with_plr(0.0));
  b->on_frame(sample_with_plr(0.0));

  common::JsonValue doc;
  std::string error;
  ASSERT_TRUE(common::JsonValue::parse(registry.healthz_json(), &doc, &error))
      << error;  // hostile label must stay valid JSON
  const common::JsonValue* sessions = doc.find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->size(), 2u);
  EXPECT_EQ(doc.find("states")->number_at("healthy", -1), 2.0);
  EXPECT_EQ(doc.find("states")->number_at("degraded", -1), 0.0);
}

// --- the invariant: health tracking reads, never perturbs ----------------

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

TEST(HealthInvariant, TrackingDoesNotChangeBitstreamReportOrJoules) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;

  auto run_once = [&](bool health_on) {
    sim::PipelineConfig config;
    config.frames = 8;
    config.encoder.qp = 10;
    config.encoder.search.range = 4;
    if (health_on) config.health.emplace();
    net::UniformFrameLoss loss(0.10, /*seed=*/2005);
    return digest(sim::run_pipeline(seq, sim::SchemeSpec::pbpair(pbpair),
                                    &loss, config));
  };

  const std::string off = run_once(false);
  const std::string with_health = run_once(true);
  EXPECT_EQ(off, with_health);

  // Also with the metrics layer collecting (the serve configuration).
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::string with_metrics = run_once(true);
  obs::set_enabled(was_enabled);
  obs::Registry::global().reset_all();
  EXPECT_EQ(off, with_metrics);
}

// --- Prometheus renderer -------------------------------------------------

void fill_sample_registry(obs::Registry* registry) {
  registry->counter("encoder.frames").add(42);
  registry->counter("session.s000.frames").add(7);
  registry->counter("session.s001.frames").add(9);
  registry->gauge("session.s000.psnr_db").set(36.5);
  registry->histogram("stage.encode_ns").observe(100);  // bucket le=256
  registry->histogram("stage.encode_ns").observe(300);  // bucket le=512
}

TEST(Prometheus, RenderMatchesGoldenFile) {
  obs::Registry registry;
  fill_sample_registry(&registry);
  const std::string golden =
      read_file(std::string(PBPAIR_TEST_GOLDEN_DIR) + "/prometheus.txt");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(obs::render_prometheus(registry), golden);
}

TEST(Prometheus, RenderParseRoundTrip) {
  obs::Registry registry;
  fill_sample_registry(&registry);
  std::vector<obs::PromSample> samples;
  ASSERT_TRUE(
      obs::parse_prometheus_text(obs::render_prometheus(registry), &samples));

  double s001_frames = -1, s000_psnr = -1, plain = -1, hist_count = -1;
  for (const obs::PromSample& s : samples) {
    if (s.family == "pbpair_session_frames_total" && s.session == "s001") {
      s001_frames = s.value;
    }
    if (s.family == "pbpair_session_psnr_db" && s.session == "s000") {
      s000_psnr = s.value;
    }
    if (s.family == "pbpair_encoder_frames_total") plain = s.value;
    if (s.family == "pbpair_stage_encode_ns_count") hist_count = s.value;
  }
  EXPECT_EQ(s001_frames, 9.0);
  EXPECT_EQ(s000_psnr, 36.5);
  EXPECT_EQ(plain, 42.0);
  EXPECT_EQ(hist_count, 2.0);
}

TEST(Prometheus, SessionLabelsEscapeHostileCharacters) {
  obs::Registry registry;
  // Labels come from scheme labels / CLI input; a quote or backslash must
  // not corrupt the exposition.
  registry.counter("session.s\"evil\\label.frames").add(3);
  const std::string text = obs::render_prometheus(registry);
  EXPECT_NE(text.find("session=\"s\\\"evil\\\\label\""), std::string::npos);

  std::vector<obs::PromSample> samples;
  ASSERT_TRUE(obs::parse_prometheus_text(text, &samples));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].session, "s\"evil\\label");  // round-trips
  EXPECT_EQ(samples[0].value, 3.0);
}

// --- HTTP exporter -------------------------------------------------------

TEST(HttpExporter, ServesMetricsByteIdenticallyAcrossScrapes) {
  obs::Registry registry;
  fill_sample_registry(&registry);
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.start(0, [&registry](const std::string& path) {
    obs::HttpResponse response;
    if (path == "/metrics") {
      response.body = obs::render_prometheus(registry);
    } else if (path == "/healthz") {
      response.content_type = "application/json";
      response.body = "{\"sessions\": []}";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }));
  ASSERT_GT(exporter.port(), 0);  // kernel-assigned ephemeral port

  std::string first, second, health, missing;
  int status = 0;
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", exporter.port(), "/metrics", &first,
                    &status));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", exporter.port(), "/metrics", &second));
  // Idle deterministic server: two scrapes must be byte-identical.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, obs::render_prometheus(registry));

  ASSERT_TRUE(obs::http_get("127.0.0.1", exporter.port(), "/healthz",
                            &health, &status));
  EXPECT_EQ(status, 200);
  common::JsonValue doc;
  EXPECT_TRUE(common::JsonValue::parse(health, &doc));

  ASSERT_TRUE(obs::http_get("127.0.0.1", exporter.port(), "/nope", &missing,
                            &status));
  EXPECT_EQ(status, 404);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
  // After stop, connections fail cleanly.
  EXPECT_FALSE(
      obs::http_get("127.0.0.1", exporter.port(), "/metrics", &first));
}

// --- structured logging --------------------------------------------------

class ScopedLogConfig {
 public:
  ScopedLogConfig() = default;
  ~ScopedLogConfig() {
    obs::close_log_json();
    obs::set_log_min_level(obs::LogLevel::kWarn);
    obs::set_log_deterministic(false);
  }
};

TEST(Log, DeterministicJsonlRecordsParseAndOmitTimestamps) {
  ScopedLogConfig restore;
  const std::string path = temp_path("log_det.jsonl");
  obs::set_log_deterministic(true);
  obs::set_log_min_level(obs::LogLevel::kInfo);
  ASSERT_TRUE(obs::set_log_json_path(path));

  PB_LOG_INFO("frame %d done", 7);
  PB_LOG_WARN("hostile \"msg\" with \\ and\nnewline");
  PB_LOG_DEBUG("below min level: dropped");
  obs::close_log_json();

  std::istringstream lines(read_file(path));
  std::string line;
  std::vector<common::JsonValue> records;
  while (std::getline(lines, line)) {
    common::JsonValue record;
    std::string error;
    ASSERT_TRUE(common::JsonValue::parse(line, &record, &error))
        << error << " in: " << line;
    records.push_back(std::move(record));
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].find("ts"), nullptr);  // deterministic: no clock
  EXPECT_EQ(records[0].string_at("level"), "info");
  EXPECT_EQ(records[0].string_at("msg"), "frame 7 done");
  EXPECT_NE(records[0].string_at("site").find("test_telemetry.cpp:"),
            std::string::npos);
  EXPECT_EQ(records[1].string_at("level"), "warn");
  EXPECT_EQ(records[1].string_at("msg"),
            "hostile \"msg\" with \\ and\nnewline");
  std::remove(path.c_str());
}

TEST(Log, WallClockModeEmitsTimestamps) {
  ScopedLogConfig restore;
  const std::string path = temp_path("log_ts.jsonl");
  ASSERT_TRUE(obs::set_log_json_path(path));
  PB_LOG_ERROR("one error");
  obs::close_log_json();

  common::JsonValue record;
  std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(common::JsonValue::parse(
      text.substr(0, text.find('\n')), &record));
  ASSERT_NE(record.find("ts"), nullptr);
  EXPECT_GT(record.find("ts")->as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(Log, TokenBucketRateLimitsHotSites) {
  ScopedLogConfig restore;
  const std::string path = temp_path("log_burst.jsonl");
  obs::set_log_min_level(obs::LogLevel::kInfo);
  ASSERT_TRUE(obs::set_log_json_path(path));

  const std::uint64_t suppressed_before = obs::log_suppressed_total();
  for (int i = 0; i < 100; ++i) {
    PB_LOG_INFO("hot loop %d", i);  // one site, hammered
  }
  obs::close_log_json();

  // Burst is 8 and refill 2/s: a fast loop of 100 gets only a handful
  // through; the rest are counted, not written.
  std::istringstream lines(read_file(path));
  std::string line;
  int written = 0;
  while (std::getline(lines, line)) ++written;
  EXPECT_LT(written, 20);
  EXPECT_GE(written, 1);
  EXPECT_GT(obs::log_suppressed_total(), suppressed_before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbpair
