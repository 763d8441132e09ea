// Epoll-based HTTP/1.0 responder for the telemetry endpoints, plus the
// matching one-shot client (`pbpair monitor` and tests scrape with it).
// POSIX sockets only, no dependencies, loopback by default.
//
// The exporter runs one dedicated thread driving an epoll loop over
// non-blocking sockets: N scrapers can be in flight at once, each as a
// small read->respond->write state machine, so one slow or wedged client
// never blocks the others (it gets closed at its per-connection
// deadline instead). GET only, Connection: close. Handlers run on the
// exporter thread and must only READ (the registry snapshot and health
// registry are both safe to read concurrently).
//
// When observability is enabled the exporter reports on itself:
//   obs.http.requests            counter, completed responses
//   obs.http.bytes               counter, header+body bytes written
//   obs.http.timeouts            counter, connections closed at deadline
//   obs.http.active_connections  gauge, open client connections
//   obs.http.scrape_ns           histogram, accept-to-last-byte latency
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>

namespace pbpair::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4";
  std::string body;
};

/// Maps a request path ("/metrics", "/healthz") to a response.
using HttpHandler = std::function<HttpResponse(const std::string& path)>;

struct HttpExporterOptions {
  /// A connection that has not completed its request/response within
  /// this budget is closed and counted in obs.http.timeouts.
  int slow_client_timeout_ms = 2000;
};

class HttpExporter {
 public:
  HttpExporter() = default;
  ~HttpExporter();  // stop()s

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  /// starts the serving thread. False on bind/listen failure. The actual
  /// port is available from port() afterwards.
  bool start(int port, HttpHandler handler);
  bool start(int port, HttpHandler handler, const HttpExporterOptions& options);

  /// Stops the serving thread, closes every client connection and the
  /// listen socket. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  int port() const { return port_; }

 private:
  void serve_loop();

  HttpHandler handler_;
  HttpExporterOptions options_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

/// Blocking HTTP/1.0 GET http://`host`:`port``path`. Fills `*body` with
/// the response body (headers stripped) and, when non-null, `*status`
/// with the status code. False on connect/format failure.
bool http_get(const std::string& host, int port, const std::string& path,
              std::string* body, int* status = nullptr);

}  // namespace pbpair::obs
