#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pbpair::obs {
namespace {

constexpr std::size_t kRequestCap = 4096;
// Open client connections beyond this are accepted and immediately closed
// (cheap shed; the scraper retries).
constexpr std::size_t kMaxConnections = 64;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One client connection's state machine: accumulate the request until the
/// header terminator (or cap, or EOF), then drain the serialized response.
struct Connection {
  enum class State { kReading, kWriting };
  State state = State::kReading;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  std::int64_t start_ns = 0;     // accept time, for the scrape histogram
  std::int64_t deadline_ns = 0;  // slow-client cutoff
};

/// Builds the full wire response (status line + headers + body) for a raw
/// request buffer. Parsing failures and non-GET methods are answered, not
/// dropped, so a scraper always sees a status code.
std::string build_response(const std::string& request,
                           const HttpHandler& handler) {
  HttpResponse response;
  const std::size_t first_space = request.find(' ');
  const std::size_t second_space = first_space == std::string::npos
                                       ? std::string::npos
                                       : request.find(' ', first_space + 1);
  if (second_space == std::string::npos) {
    PB_LOG_DEBUG("http exporter: malformed request line (%zu bytes)",
                 request.size());
    response = HttpResponse{400, "text/plain", "bad request\n"};
  } else if (request.compare(0, first_space, "GET") != 0) {
    response = HttpResponse{405, "text/plain", "GET only\n"};
  } else {
    response = handler(
        request.substr(first_space + 1, second_space - first_space - 1));
  }
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                response.status, status_text(response.status),
                response.content_type.c_str(), response.body.size());
  return header + response.body;
}

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpExporter::~HttpExporter() { stop(); }

bool HttpExporter::start(int port, HttpHandler handler) {
  return start(port, std::move(handler), HttpExporterOptions{});
}

bool HttpExporter::start(int port, HttpHandler handler,
                         const HttpExporterOptions& options) {
  if (running_.load(std::memory_order_relaxed)) return false;
  handler_ = std::move(handler);
  options_ = options;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0 || !set_nonblocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  stop_requested_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpExporter::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_relaxed);
}

void HttpExporter::serve_loop() {
  set_thread_name("metrics-exporter");
  const int epfd = ::epoll_create1(0);
  if (epfd < 0) return;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);

  std::map<int, Connection> conns;
  const std::int64_t timeout_ns =
      static_cast<std::int64_t>(options_.slow_client_timeout_ms) * 1'000'000;

  const auto track_active = [&conns] {
    if (enabled()) {
      gauge("obs.http.active_connections")
          .set(static_cast<double>(conns.size()));
    }
  };
  const auto close_conn = [&](int fd) {
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
    track_active();
  };

  epoll_event events[64];
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    // 100 ms cap so the stop flag is honored even when idle.
    const int n_ready = ::epoll_wait(epfd, events, 64, /*timeout_ms=*/100);
    if (n_ready < 0 && errno != EINTR) break;
    const std::int64_t now = trace_now_ns();

    for (int i = 0; i < (n_ready > 0 ? n_ready : 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        // Drain the accept queue (edge-independent: level-triggered, but
        // accepting everything now keeps latency flat under bursts).
        for (;;) {
          const int client = ::accept(listen_fd_, nullptr, nullptr);
          if (client < 0) break;  // EAGAIN or transient error: done
          if (conns.size() >= kMaxConnections || !set_nonblocking(client)) {
            ::close(client);
            continue;
          }
          Connection conn;
          conn.start_ns = now;
          conn.deadline_ns = now + timeout_ns;
          conns.emplace(client, std::move(conn));
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = client;
          ::epoll_ctl(epfd, EPOLL_CTL_ADD, client, &cev);
          track_active();
        }
        continue;
      }

      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      Connection& conn = it->second;

      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // EPOLLHUP with the request already answered in-kernel is fine;
        // anything else means the peer is gone.
        if (conn.state != Connection::State::kWriting) {
          close_conn(fd);
          continue;
        }
      }

      if (conn.state == Connection::State::kReading) {
        char buf[1024];
        bool request_done = false;
        bool peer_gone = false;
        while (conn.in.size() < kRequestCap) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) peer_gone = true;
            break;
          }
          if (n == 0) {  // EOF: serve what arrived (may be a partial line)
            request_done = true;
            break;
          }
          conn.in.append(buf, static_cast<std::size_t>(n));
          if (conn.in.find("\r\n\r\n") != std::string::npos) {
            request_done = true;
            break;
          }
        }
        if (peer_gone) {
          close_conn(fd);
          continue;
        }
        if (request_done || conn.in.size() >= kRequestCap) {
          conn.out = build_response(conn.in, handler_);
          conn.state = Connection::State::kWriting;
          epoll_event cev{};
          cev.events = EPOLLOUT;
          cev.data.fd = fd;
          ::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &cev);
        }
      }

      if (conn.state == Connection::State::kWriting) {
        bool done = false;
        bool failed = false;
        while (conn.out_off < conn.out.size()) {
          const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                                   conn.out.size() - conn.out_off, 0);
          if (n < 0) {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) failed = true;
            break;
          }
          conn.out_off += static_cast<std::size_t>(n);
        }
        done = conn.out_off >= conn.out.size();
        if (done && enabled()) {
          counter("obs.http.requests").add(1);
          counter("obs.http.bytes").add(conn.out.size());
          histogram("obs.http.scrape_ns").observe(trace_now_ns() -
                                                  conn.start_ns);
        }
        if (done || failed) close_conn(fd);
      }
    }

    // Slow-client sweep: a trickler (or a connect that never sends) is cut
    // at its deadline so it cannot hold a connection slot indefinitely.
    for (auto it = conns.begin(); it != conns.end();) {
      if (now >= it->second.deadline_ns) {
        const int fd = it->first;
        ++it;
        if (enabled()) counter("obs.http.timeouts").add(1);
        close_conn(fd);
      } else {
        ++it;
      }
    }
  }

  for (auto& [fd, conn] : conns) ::close(fd);
  conns.clear();
  ::close(epfd);
}

bool http_get(const std::string& host, int port, const std::string& path,
              std::string* body, int* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }

  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  write_all(fd, request);

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.0 200 OK\r\n...headers...\r\n\r\nbody"
  if (response.compare(0, 5, "HTTP/") != 0) return false;
  const std::size_t status_pos = response.find(' ');
  if (status_pos == std::string::npos) return false;
  if (status != nullptr) {
    *status = std::atoi(response.c_str() + status_pos + 1);
  }
  const std::size_t body_pos = response.find("\r\n\r\n");
  if (body_pos == std::string::npos) return false;
  *body = response.substr(body_pos + 4);
  return true;
}

}  // namespace pbpair::obs
