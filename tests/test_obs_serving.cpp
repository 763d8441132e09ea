// Multi-scrape HTTP serving and the post-mortem flight recorder.
//
// The epoll exporter's contract: N concurrent scrapers each get a
// complete, byte-correct response; a wedged client is closed at its
// deadline (and counted) without stalling anyone else; malformed and
// non-GET requests get clean error statuses. The flight recorder's
// contract: a bounded ring that never loses the newest events, dumps
// parseable JSONL, and is wired into sessions — populated per frame,
// auto-dumped on a CRITICAL health transition, and served over
// GET /flightrecorder/<session>.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "sim/session.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

class ScopedObs {
 public:
  explicit ScopedObs(bool on) : prev_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~ScopedObs() { obs::set_enabled(prev_); }

 private:
  bool prev_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Connects to 127.0.0.1:port, sends `request` raw, then reads until the
/// server closes (or `recv_timeout_s` passes). Returns everything read.
std::string raw_exchange(int port, const std::string& request,
                         double recv_timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  if (!request.empty()) {
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
  }
  timeval tv{};
  tv.tv_sec = static_cast<long>(recv_timeout_s);
  tv.tv_usec = static_cast<long>((recv_timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // 0 = server closed, <0 = timeout/error
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(FlightRecorder, RingWrapsAndSnapshotKeepsNewest) {
  obs::FlightRecorder ring("wraptest", /*capacity=*/6);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    ring.record(obs::FlightEvent::kFrameEncoded, i, i * 10, i);
  }
  EXPECT_EQ(ring.total_recorded(), 20u);
  const std::vector<obs::FlightRecord> window = ring.snapshot();
  ASSERT_EQ(window.size(), 8u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].seq, 12 + i);            // oldest survivor first
    EXPECT_EQ(window[i].frame, static_cast<std::int32_t>(12 + i));
    EXPECT_EQ(window[i].a, static_cast<std::int64_t>((12 + i) * 10));
  }
  ring.reset();
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(FlightRecorder, DumpJsonlParsesAndUnsafeDumpMatches) {
  obs::FlightRecorder ring("dumptest", 16);
  ring.record(obs::FlightEvent::kFrameEncoded, 0, 879, 99);
  ring.record(obs::FlightEvent::kPlrUpdate, 1, 26, 0);
  ring.record(obs::FlightEvent::kHealthTransition, 2, 0, 2);

  const std::string jsonl = ring.dump_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    common::JsonValue v;
    std::string error;
    ASSERT_TRUE(common::JsonValue::parse(line, &v, &error)) << line;
    EXPECT_EQ(v.string_at("session"), "dumptest");
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
  EXPECT_NE(jsonl.find("\"event\":\"plr_update\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"health_transition\""),
            std::string::npos);

  // The crash-handler path produces the same bytes through ::write.
  const std::string path =
      std::string(::testing::TempDir()) + "flight_unsafe.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  ring.dump_unsafe(fileno(f));
  std::fclose(f);
  EXPECT_EQ(read_file(path), jsonl);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RegistryCreatesResetsAndLists) {
  obs::FlightRegistry& registry = obs::FlightRegistry::global();
  obs::FlightRecorder* a = registry.create("regtest_b", 8);
  a->record(obs::FlightEvent::kFuzzCase, 0, 1, 2);
  EXPECT_EQ(a->total_recorded(), 1u);

  // Re-creating a label returns the same ring, reset.
  obs::FlightRecorder* again = registry.create("regtest_b", 8);
  EXPECT_EQ(a, again);
  EXPECT_EQ(a->total_recorded(), 0u);

  registry.create("regtest_a", 8);
  EXPECT_EQ(registry.find("regtest_never"), nullptr);
  ASSERT_NE(registry.find("regtest_a"), nullptr);

  // labels() is sorted, so regtest_a precedes regtest_b.
  const std::vector<std::string> labels = registry.labels();
  std::ptrdiff_t pos_a = -1, pos_b = -1;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == "regtest_a") pos_a = static_cast<std::ptrdiff_t>(i);
    if (labels[i] == "regtest_b") pos_b = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(pos_a, 0);
  ASSERT_GE(pos_b, 0);
  EXPECT_LT(pos_a, pos_b);
}

TEST(FlightRecorder, SessionAutoDumpsOnCriticalTransition) {
  // A 70% loss channel blows past the critical PLR right after warmup;
  // the session must record the transition and auto-dump the ring into
  // the registry's dump dir.
  const std::string dump_dir = ::testing::TempDir();
  obs::FlightRegistry::global().set_dump_dir(dump_dir);

  sim::PipelineConfig config;
  config.frames = 40;
  config.health.emplace();

  video::SyntheticSequence sequence =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  core::PbpairConfig pbpair;
  pbpair.plr = 0.10;
  sim::StreamSession session(
      [sequence](int f) { return sequence.frame_at(f); },
      sim::SchemeSpec::pbpair(pbpair),
      std::make_unique<net::UniformFrameLoss>(0.70, 2005), config,
      "flightcrit");
  session.run_to_end();
  obs::FlightRegistry::global().set_dump_dir("");  // don't leak into others

  obs::FlightRecorder* ring = obs::FlightRegistry::global().find("flightcrit");
  ASSERT_NE(ring, nullptr);
  EXPECT_GT(ring->total_recorded(), 0u);
  // The ring saw the CRITICAL transition...
  bool saw_critical = false;
  for (const obs::FlightRecord& r : ring->snapshot()) {
    if (r.event == obs::FlightEvent::kHealthTransition &&
        r.b == static_cast<std::int64_t>(obs::HealthState::kCritical)) {
      saw_critical = true;
    }
  }
  EXPECT_TRUE(saw_critical);
  // ...and the post-mortem file exists, is JSONL, and names the session.
  const std::string dump_path = dump_dir + "flight_flightcrit.jsonl";
  const std::string dumped = read_file(dump_path);
  ASSERT_FALSE(dumped.empty());
  EXPECT_EQ(dumped.compare(0, 24, "{\"session\":\"flightcrit\","), 0);
  std::remove(dump_path.c_str());
}

TEST(HttpServing, ParallelScrapesAreByteIdenticalPerInstant) {
  // With the registry static for the duration, every one of N concurrent
  // scrapers must read the exact same bytes on /metrics — the epoll state
  // machine may interleave connections, never responses. Self-metrics
  // stay off (obs disabled) so serving does not perturb what is served.
  ScopedObs off(false);
  obs::Registry registry;
  registry.counter("serving.alpha").add(7);
  registry.counter("serving.beta").add(11);
  registry.histogram("serving.lat_ns").observe(300);

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.start(0, [&registry](const std::string& path) {
    obs::HttpResponse response;
    if (path == "/metrics") {
      response.body = obs::render_prometheus(registry);
    } else if (path == "/healthz") {
      response.content_type = "application/json";
      response.body = "{\"status\": \"ok\"}\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }));

  std::string reference;
  int status = 0;
  ASSERT_TRUE(obs::http_get("127.0.0.1", exporter.port(), "/metrics",
                            &reference, &status));
  ASSERT_EQ(status, 200);
  ASSERT_FALSE(reference.empty());

  constexpr int kClients = 8;
  constexpr int kScrapesPerClient = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kScrapesPerClient; ++i) {
        std::string body;
        int code = 0;
        const bool healthz = (c + i) % 3 == 0;
        if (!obs::http_get("127.0.0.1", exporter.port(),
                           healthz ? "/healthz" : "/metrics", &body,
                           &code) ||
            code != 200) {
          failures.fetch_add(1);
          continue;
        }
        if (healthz ? body != "{\"status\": \"ok\"}\n" : body != reference) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  exporter.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(HttpServing, SlowClientIsClosedAtDeadlineAndCounted) {
  ScopedObs on(true);
  obs::HttpExporterOptions options;
  options.slow_client_timeout_ms = 150;
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.start(
      0,
      [](const std::string&) {
        obs::HttpResponse response;
        response.body = "fast\n";
        return response;
      },
      options));
  const std::uint64_t timeouts_before =
      obs::counter("obs.http.timeouts").value();

  // Half a request, then silence: the server must close us at the
  // deadline (recv sees EOF well before the 5 s client-side guard), and
  // a well-behaved client on the same loop must be unaffected.
  const std::string half = raw_exchange(exporter.port(), "GET /met", 5.0);
  EXPECT_TRUE(half.empty());

  std::string body;
  int status = 0;
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", exporter.port(), "/x", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "fast\n");
  exporter.stop();
  EXPECT_GE(obs::counter("obs.http.timeouts").value(), timeouts_before + 1);
}

TEST(HttpServing, MalformedAndNonGetRequestsGetErrorStatuses) {
  ScopedObs off(false);
  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.start(0, [](const std::string&) {
    obs::HttpResponse response;
    response.body = "ok\n";
    return response;
  }));
  const std::string post =
      raw_exchange(exporter.port(), "POST /metrics HTTP/1.0\r\n\r\n", 5.0);
  EXPECT_EQ(post.compare(0, 12, "HTTP/1.0 405"), 0) << post;
  const std::string garbage = raw_exchange(exporter.port(), "\r\n\r\n", 5.0);
  EXPECT_EQ(garbage.compare(0, 12, "HTTP/1.0 400"), 0) << garbage;
  exporter.stop();
}

TEST(HttpServing, FlightRecorderEndpointServesRing) {
  // The serve-side route: /flightrecorder/<label> returns the ring as
  // ndjson, unknown labels 404. (pbpair serve wires exactly this handler;
  // the test pins the exporter/recorder integration.)
  ScopedObs off(false);
  obs::FlightRecorder* ring =
      obs::FlightRegistry::global().create("endpointtest", 8);
  ring->record(obs::FlightEvent::kFrameEncoded, 0, 100, 5);
  ring->record(obs::FlightEvent::kFrameLost, 1, 2, 4);

  obs::HttpExporter exporter;
  ASSERT_TRUE(exporter.start(0, [](const std::string& path) {
    obs::HttpResponse response;
    if (path.compare(0, 16, "/flightrecorder/") == 0) {
      obs::FlightRecorder* r =
          obs::FlightRegistry::global().find(path.substr(16));
      if (r == nullptr) {
        response.status = 404;
        response.body = "unknown session\n";
      } else {
        response.content_type = "application/x-ndjson";
        response.body = r->dump_jsonl();
      }
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }));

  std::string body;
  int status = 0;
  ASSERT_TRUE(obs::http_get("127.0.0.1", exporter.port(),
                            "/flightrecorder/endpointtest", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, ring->dump_jsonl());
  EXPECT_NE(body.find("\"event\":\"frame_lost\""), std::string::npos);

  ASSERT_TRUE(obs::http_get("127.0.0.1", exporter.port(),
                            "/flightrecorder/ghost", &body, &status));
  EXPECT_EQ(status, 404);
  exporter.stop();
}

}  // namespace
}  // namespace pbpair
