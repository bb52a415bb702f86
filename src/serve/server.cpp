#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"
#include "serve/admin.hpp"
#include "serve/protocol.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

namespace {

[[noreturn]] void socket_error(const std::string& what) {
  throw DataError("serve socket failure",
                  ErrorContext{}.with_operation("serve_listen").with_detail(
                      what + ": " + std::strerror(errno)));
}

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// Per-event read cap: level-triggered epoll re-reports leftovers, so a
/// firehose connection cannot starve its loop-mates.
constexpr std::size_t kMaxReadPerEvent = 256u << 10;

/// Admin requests are one GET line plus a handful of headers; anything
/// bigger is not a scraper.
constexpr std::size_t kMaxAdminRequestBytes = 8u << 10;

/// Creates a non-blocking loopback listener; returns the fd and writes the
/// bound port (useful with port 0). Throws DataError on failure.
int listen_loopback(std::uint16_t port, int backlog,
                    std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) socket_error("socket");
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    socket_error("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ::close(fd);
    socket_error("getsockname");
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    socket_error("listen");
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

/// One epoll loop: owns its connections outright (fd, buffers, framing
/// mode) and is the only thread that touches them. Loop 0 additionally
/// owns the accept path.
class Server::IoLoop {
 public:
  IoLoop(Server& server, bool owns_listener, std::size_t index)
      : server_(server), owns_listener_(owns_listener) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) socket_error("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      ::close(epoll_fd_);
      socket_error("eventfd");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
    if (owns_listener_) {
      event.data.fd = server_.listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_.listen_fd_, &event);
      if (server_.admin_listen_fd_ >= 0) {
        event.data.fd = server_.admin_listen_fd_;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_.admin_listen_fd_,
                    &event);
      }
    }
#if BMFUSION_TELEMETRY_ENABLED
    // Per-loop gauges are resolved once here (the name strings allocate),
    // so publishing from the event loop stays allocation-free. Mirrors the
    // fusion.population.<p>.* registration idiom.
    const std::string prefix = "serve.loop." + std::to_string(index) + ".";
    auto& registry = telemetry::Registry::instance();
    gauge_connections_ = &registry.gauge(prefix + "connections");
    gauge_read_bytes_ = &registry.gauge(prefix + "read_buffer_bytes");
    gauge_write_bytes_ = &registry.gauge(prefix + "write_buffer_bytes");
    gauge_inbox_ = &registry.gauge(prefix + "accept_inbox");
    gauge_pipeline_ = &registry.gauge(prefix + "pipeline_depth");
#else
    (void)index;
#endif
  }

  ~IoLoop() {
    ::close(wake_fd_);
    ::close(epoll_fd_);
  }

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  /// Hands a freshly accepted fd to this loop (callable from any thread).
  void add_pending(int fd, bool admin) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      inbox_.push_back({fd, admin});
    }
    wake();
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }

  /// Thread body: serve until stop is requested, then drain and close.
  void run() {
    epoll_event events[64];
    while (!server_.stopping_.load(std::memory_order_acquire)) {
      const int count = ::epoll_wait(
          epoll_fd_, events, static_cast<int>(std::size(events)), -1);
      if (count < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < count; ++i) {
        dispatch_event(events[i]);
      }
      adopt_pending();
#if BMFUSION_TELEMETRY_ENABLED
      // Connection-count changes publish immediately so the gauge never
      // lies about membership; the byte-level gauges refresh on a 64-batch
      // stride — they are sampled by scrapes, not read per request.
      if (connections_.size() != published_connections_ ||
          (gauge_tick_++ & 63u) == 0) {
        publish_loop_gauges();
      }
#endif
    }
    drain_and_close();
  }

  /// Called from Server::stop() after join: closes anything still parked
  /// in the inbox (a last-instant accept racing the stop flag).
  void close_leftovers() {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    for (const auto& [fd, admin] : inbox_) ::close(fd);
    inbox_.clear();
  }

 private:
  struct Connection {
    int fd = -1;
    bool admin = false;             ///< accepted on the admin listener
    bool binary = false;            ///< after a binary "hello"
    bool close_after_flush = false;
    bool reading_disabled = false;  ///< oversize / peer half-close
    std::uint32_t interest = EPOLLIN;  ///< currently registered events
    std::string in;
    std::size_t in_pos = 0;    ///< consumption cursor (compacted per event)
    std::size_t scan_pos = 0;  ///< newline-scan high-water mark
    std::string out;
    std::size_t out_pos = 0;
  };

  void dispatch_event(const epoll_event& event) {
    const int fd = event.data.fd;
    if (fd == wake_fd_) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(wake_fd_, &drained, sizeof drained);
      return;
    }
    if (owns_listener_ && fd == server_.listen_fd_) {
      handle_accept(server_.listen_fd_, /*admin=*/false);
      return;
    }
    if (owns_listener_ && fd == server_.admin_listen_fd_) {
      handle_accept(server_.admin_listen_fd_, /*admin=*/true);
      return;
    }
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;  // destroyed earlier this batch
    Connection& conn = *it->second;
    if ((event.events & (EPOLLERR | EPOLLHUP)) != 0 &&
        (event.events & EPOLLIN) == 0) {
      destroy(conn);
      return;
    }
    if ((event.events & EPOLLIN) != 0) {
      if (!on_readable(conn)) return;  // destroyed
    }
    if ((event.events & EPOLLOUT) != 0) flush(conn);
  }

  void handle_accept(int listen_fd, bool admin) {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // EAGAIN, or the listener was shut down
      }
      if (server_.stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      // Request/response protocol with small frames: Nagle + delayed ACK
      // would add ~40ms per round trip.
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
      if (admin) {
        BMF_COUNTER_ADD("serve.admin.connections", 1);
      } else {
        BMF_COUNTER_ADD("serve.connections", 1);
      }
      const std::size_t index =
          server_.next_loop_.fetch_add(1, std::memory_order_relaxed) %
          server_.loops_.size();
      Server::IoLoop& target = *server_.loops_[index];
      if (&target == this) {
        adopt(fd, admin);
      } else {
        target.add_pending(fd, admin);
      }
    }
  }

  void adopt_pending() {
    std::vector<std::pair<int, bool>> pending;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      pending.swap(inbox_);
    }
#if BMFUSION_TELEMETRY_ENABLED
    // Handoff burst depth: how many accepted fds were waiting for this loop.
    gauge_inbox_->set(static_cast<double>(pending.size()));
#endif
    for (const auto& [fd, admin] : pending) adopt(fd, admin);
  }

  void adopt(int fd, bool admin) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->admin = admin;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      ::close(fd);
      return;
    }
    connections_.emplace(fd, std::move(conn));
  }

  /// The one place a connection fd is closed and its state reaped.
  void destroy(Connection& conn) {
    const int fd = conn.fd;
    ::close(fd);  // auto-removes fd from the epoll set
    connections_.erase(fd);
    BMF_COUNTER_ADD("serve.disconnects", 1);
  }

  /// Reads until EAGAIN (capped per event), handles every complete
  /// request, coalesces the responses, and starts the flush. Returns false
  /// when the connection was destroyed.
  bool on_readable(Connection& conn) {
    if (conn.reading_disabled) return true;
    char chunk[64 << 10];
    bool peer_eof = false;
    std::size_t read_this_event = 0;
    while (read_this_event < kMaxReadPerEvent) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        read_this_event += static_cast<std::size_t>(n);
        // A request larger than the cap can never complete; stop piling
        // bytes and let process_buffered answer the error.
        if (conn.in.size() - conn.in_pos >
            server_.config_.max_request_bytes) {
          break;
        }
        continue;
      }
      if (n == 0) {
        peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy(conn);  // ECONNRESET and friends
      return false;
    }
    if (!process_buffered(conn)) return false;
    if (peer_eof) {
      // Half-close: the peer is done sending but may still be reading the
      // responses to its pipelined requests.
      conn.reading_disabled = true;
      conn.close_after_flush = true;
      if (conn.out_pos == conn.out.size()) {
        destroy(conn);
        return false;
      }
    }
    return flush(conn);
  }

  /// Handles every complete request sitting in the read buffer via a
  /// cursor, then compacts once — O(bytes) for a packet of pipelined
  /// requests where substr+erase-per-line was O(bytes^2). Returns false
  /// when the connection was destroyed.
  bool process_buffered(Connection& conn) {
    if (conn.admin) return process_admin(conn);
    std::size_t handled = 0;
    ProtocolResult result;
    while (true) {
      const bool framed = conn.binary;
      if (!(framed ? next_frame(conn, result) : next_line(conn, result))) {
        break;
      }
      ++handled;
      conn.out += result.response;
      if (!framed) conn.out += '\n';
      if (result.switch_to_binary) conn.binary = true;
      if (result.shutdown) {
        conn.close_after_flush = true;
        server_.request_stop();
        break;  // stop parsing; the drain flushes the response
      }
    }
    // The single compaction per read event.
    if (conn.in_pos > 0) {
      conn.in.erase(0, conn.in_pos);
      conn.scan_pos -= std::min(conn.scan_pos, conn.in_pos);
      conn.in_pos = 0;
    }
#if BMFUSION_TELEMETRY_ENABLED
    // Requests answered from one readable event = observed pipeline depth.
    if (handled > 0) gauge_pipeline_->set(static_cast<double>(handled));
#else
    (void)handled;
#endif
    return true;
  }

  /// "<what> exceeds max_request_bytes (N)", the in-band oversize error.
  std::string over_limit(const char* what) const {
    return std::string(what) + " exceeds max_request_bytes (" +
           std::to_string(server_.config_.max_request_bytes) + ")";
  }

  /// Answers the next complete request line into `result`. Returns false
  /// when none is buffered yet or the connection was rejected.
  bool next_line(Connection& conn, ProtocolResult& result) {
    const std::size_t limit = server_.config_.max_request_bytes;
    while (true) {
      const std::size_t scan_from = std::max(conn.in_pos, conn.scan_pos);
      const std::size_t newline = conn.in.find('\n', scan_from);
      if (newline == std::string::npos) {
        conn.scan_pos = conn.in.size();
        if (conn.in.size() - conn.in_pos <= limit) return false;
        break;
      }
      std::string_view line(conn.in.data() + conn.in_pos,
                            newline - conn.in_pos);
      conn.in_pos = newline + 1;
      conn.scan_pos = conn.in_pos;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;
      if (line.size() > limit) break;
      result = handle_request(server_.sessions_, line);
      return true;
    }
    reject_oversized(conn,
                     json_error("DataError", over_limit("request")) + '\n');
    return false;
  }

  /// Answers the next complete binary frame into `result`. Returns false
  /// when none is buffered yet or the connection was rejected.
  bool next_frame(Connection& conn, ProtocolResult& result) {
    const std::size_t available = conn.in.size() - conn.in_pos;
    if (available < wire::kHeaderBytes) return false;
    const unsigned char* head =
        reinterpret_cast<const unsigned char*>(conn.in.data() + conn.in_pos);
    const std::uint8_t opcode = head[1];
    std::uint16_t req_flags = 0;
    std::memcpy(&req_flags, head + 2, sizeof req_flags);
    std::uint32_t payload_size = 0;
    std::memcpy(&payload_size, head + 4, sizeof payload_size);
    if (head[0] != wire::kMagic ||
        payload_size > server_.config_.max_request_bytes) {
      // No way to resync a corrupt or oversized frame stream: answer once,
      // then close.
      std::string frame;
      wire::append_error_frame(
          frame, opcode, "DataError",
          head[0] != wire::kMagic ? "bad frame magic" : over_limit("frame"));
      reject_oversized(conn, frame);
      return false;
    }
    if (available < wire::kHeaderBytes + payload_size) return false;
    const std::string_view payload(
        conn.in.data() + conn.in_pos + wire::kHeaderBytes, payload_size);
    conn.in_pos += wire::kHeaderBytes + payload_size;
    conn.scan_pos = conn.in_pos;
    result = handle_binary_request(server_.sessions_, opcode, req_flags,
                                   payload);
    return true;
  }

  /// Admin plane: one HTTP GET per connection. Answers as soon as the
  /// request line is complete (scrapers send the whole request in one
  /// packet; trailing header bytes are ignored because reading stops),
  /// then closes after the flush. Returns false when the connection was
  /// destroyed.
  bool process_admin(Connection& conn) {
    const std::size_t newline = conn.in.find('\n');
    if (newline == std::string::npos) {
      if (conn.in.size() > kMaxAdminRequestBytes) {
        destroy(conn);
        return false;
      }
      return true;
    }
    std::string_view line(conn.in.data(), newline);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    // "METHOD SP PATH SP HTTP/x.x"; a bare path (no version) also works.
    std::string_view method = line;
    std::string_view path;
    const std::size_t sp1 = line.find(' ');
    if (sp1 != std::string_view::npos) {
      method = line.substr(0, sp1);
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      path = sp2 == std::string_view::npos
                 ? line.substr(sp1 + 1)
                 : line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
    const std::size_t query = path.find('?');
    if (query != std::string_view::npos) path = path.substr(0, query);
    conn.out += handle_admin_request(method, path, server_.sessions_);
    conn.reading_disabled = true;
    conn.close_after_flush = true;
    conn.in.clear();
    conn.in_pos = 0;
    conn.scan_pos = 0;
    return true;
  }

  /// Oversized request / corrupt frame: answer in-band, count it, stop
  /// reading, close once the error has left.
  void reject_oversized(Connection& conn, const std::string& response) {
    BMF_COUNTER_ADD("serve.oversized_requests", 1);
    conn.out += response;
    conn.close_after_flush = true;
    conn.reading_disabled = true;
    conn.in.clear();
    conn.in_pos = 0;
    conn.scan_pos = 0;
  }

  /// Sends as much of the write buffer as the socket accepts; arms
  /// EPOLLOUT for the remainder. Returns false when the connection was
  /// destroyed (fully flushed close, dead peer, or slow-consumer cap).
  bool flush(Connection& conn) {
#if BMFUSION_TELEMETRY_ENABLED
    // Sampled 1-in-64: a flush is per event batch, so timing every one
    // costs two clock reads per batch on the hot path; one sample per 64
    // keeps the latency quantiles honest at ~zero steady-state cost.
    const bool timed = conn.out_pos < conn.out.size() &&
                       (flush_tick_++ & 63u) == 0;
    const std::uint64_t start_ns = timed ? telemetry::now_ns() : 0;
#endif
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, kSendFlags);
      if (n >= 0) {
        conn.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy(conn);
      return false;
    }
#if BMFUSION_TELEMETRY_ENABLED
    if (timed) {
      BMF_HISTOGRAM_RECORD_US(
          "serve.write_us",
          static_cast<double>(telemetry::now_ns() - start_ns) * 1e-3);
    }
#endif
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      if (conn.close_after_flush) {
        destroy(conn);
        return false;
      }
    } else if (conn.out.size() - conn.out_pos >
               server_.config_.max_response_buffer_bytes) {
      BMF_COUNTER_ADD("serve.slow_consumer_closes", 1);
      destroy(conn);
      return false;
    }
    update_interest(conn);
    return true;
  }

  void update_interest(Connection& conn) {
    std::uint32_t wanted = conn.reading_disabled ? 0u : EPOLLIN;
    if (conn.out_pos < conn.out.size()) wanted |= EPOLLOUT;
    if (wanted == conn.interest) return;
    epoll_event event{};
    event.events = wanted;
    event.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    conn.interest = wanted;
  }

  /// Shutdown path: answer the requests already buffered, then keep
  /// flushing pending responses until everything drained or the deadline
  /// passed, then close whatever is left.
  void drain_and_close() {
    adopt_pending();
    {
      std::vector<int> fds;
      fds.reserve(connections_.size());
      for (const auto& [fd, conn] : connections_) fds.push_back(fd);
      for (const int fd : fds) {
        const auto it = connections_.find(fd);
        if (it == connections_.end()) continue;
        Connection& conn = *it->second;
        conn.reading_disabled = true;
        conn.close_after_flush = true;
        if (process_buffered(conn)) flush(conn);
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(server_.config_.drain_timeout_ms);
    epoll_event events[64];
    while (!connections_.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      const int count =
          ::epoll_wait(epoll_fd_, events, static_cast<int>(std::size(events)),
                       /*timeout_ms=*/20);
      if (count < 0 && errno != EINTR) break;
      std::vector<int> fds;
      fds.reserve(connections_.size());
      for (const auto& [fd, conn] : connections_) fds.push_back(fd);
      for (const int fd : fds) {
        const auto it = connections_.find(fd);
        if (it != connections_.end()) flush(*it->second);
      }
    }
    while (!connections_.empty()) {
      destroy(*connections_.begin()->second);
    }
  }

#if BMFUSION_TELEMETRY_ENABLED
  /// Publishes the per-loop gauges; O(connections), on membership changes
  /// and every 64th epoll batch (see run()).
  void publish_loop_gauges() {
    std::size_t read_bytes = 0;
    std::size_t write_bytes = 0;
    for (const auto& [fd, conn] : connections_) {
      read_bytes += conn->in.size() - conn->in_pos;
      write_bytes += conn->out.size() - conn->out_pos;
    }
    published_connections_ = connections_.size();
    gauge_connections_->set(static_cast<double>(published_connections_));
    gauge_read_bytes_->set(static_cast<double>(read_bytes));
    gauge_write_bytes_->set(static_cast<double>(write_bytes));
  }
#endif

  Server& server_;
  bool owns_listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::mutex inbox_mutex_;
  /// Freshly accepted (fd, is_admin) pairs awaiting adoption.
  std::vector<std::pair<int, bool>> inbox_;
#if BMFUSION_TELEMETRY_ENABLED
  telemetry::Gauge* gauge_connections_ = nullptr;
  telemetry::Gauge* gauge_read_bytes_ = nullptr;
  telemetry::Gauge* gauge_write_bytes_ = nullptr;
  telemetry::Gauge* gauge_inbox_ = nullptr;
  telemetry::Gauge* gauge_pipeline_ = nullptr;
  std::uint32_t flush_tick_ = 0;   ///< serve.write_us 1-in-64 sampler
  std::uint32_t gauge_tick_ = 0;   ///< per-loop gauge publish stride
  std::size_t published_connections_ = 0;  ///< last published gauge value
#endif
};

Server::Server(ServerConfig config) : config_(config) {}

Server::~Server() { stop(); }

void Server::start() {
  BMFUSION_REQUIRE(listen_fd_ < 0, "server already started");
  BMFUSION_REQUIRE(config_.admin_port <= 65535,
                   "admin_port must be -1 (disabled) or a valid port");
  listen_fd_ = listen_loopback(config_.port, config_.backlog, bound_port_);
  if (config_.admin_port >= 0) {
    try {
      admin_listen_fd_ =
          listen_loopback(static_cast<std::uint16_t>(config_.admin_port),
                          config_.backlog, bound_admin_port_);
    } catch (...) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
  }
  stopping_.store(false, std::memory_order_release);
  stopped_ = false;

  std::size_t io_threads = config_.io_threads;
  if (io_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    io_threads = std::clamp<std::size_t>(hw, 1, 4);
  }
  loops_.reserve(io_threads);
  for (std::size_t i = 0; i < io_threads; ++i) {
    loops_.push_back(
        std::make_unique<IoLoop>(*this, /*owns_listener=*/i == 0, i));
  }
  threads_.reserve(io_threads);
  for (std::size_t i = 0; i < io_threads; ++i) {
    threads_.emplace_back([loop = loops_[i].get()] { loop->run(); });
  }
}

void Server::request_stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  // Wakes any in-flight accept with EINVAL and refuses new peers; the fd
  // itself stays allocated (so its number cannot be reused under a racing
  // accept) until stop() closes it after the join.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (admin_listen_fd_ >= 0) ::shutdown(admin_listen_fd_, SHUT_RDWR);
  for (const auto& loop : loops_) loop->wake();
  // Taking the mutex orders the flag flip against wait()'s predicate
  // check, so the notify cannot slip between check and sleep. Callers of
  // request_stop never hold stop_mutex_ (stop() acquires it afterwards).
  { std::lock_guard<std::mutex> lock(stop_mutex_); }
  stop_cv_.notify_all();
}

void Server::stop() {
  request_stop();
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (listen_fd_ < 0 || stopped_) return;
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  for (const auto& loop : loops_) loop->close_leftovers();
  threads_.clear();
  loops_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (admin_listen_fd_ >= 0) {
    ::close(admin_listen_fd_);
    admin_listen_fd_ = -1;
  }
  stopped_ = true;
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) || stopped_;
    });
  }
  stop();
}

std::size_t run_stdio(SessionRegistry& sessions, std::istream& in,
                      std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const ProtocolResult result = handle_request(sessions, line);
    out << result.response << '\n' << std::flush;
    ++handled;
    if (result.shutdown) break;
  }
  return handled;
}

}  // namespace bmfusion::serve
