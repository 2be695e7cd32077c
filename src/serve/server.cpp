#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/wire.hpp"

namespace citl::serve {

namespace {

/// One client connection. The loop thread owns accept, read and close. A
/// response is written by the thread that produced it, a step's worker or
/// the loop, under out_mutex: straight to the socket when nothing is queued
/// before it. Bytes the socket does not take wait in the outbox, and the
/// loop arms EPOLLOUT for them. close_conn() closes the fd and sets `dead`
/// under out_mutex, so no worker writes to a closed or reused descriptor.
/// shared_ptr keeps a connection alive for workers that are still producing
/// a response after the peer hung up.
struct Connection {
  explicit Connection(int fd_) : fd(fd_) {}
  const int fd;
  FrameParser parser;

  /// Loop thread only: when the parser started holding a partial frame
  /// (steady ns), 0 while no frame is pending. The housekeeping tick closes
  /// connections whose partial frame outlives the read deadline.
  std::int64_t partial_since_ns = 0;
  /// Loop thread only: EPOLLOUT is in the fd's epoll interest.
  bool write_armed = false;

  std::mutex out_mutex;
  std::vector<std::uint8_t> outbox;   ///< queued, not yet written; empty
                                      ///< when nothing is queued
  std::size_t out_written = 0;        ///< prefix of outbox already sent
  bool close_after_flush = false;     ///< set after a framing error
  bool dead = false;                  ///< fd closed (set by the loop)

  /// Request dedupe (guarded by out_mutex): the most recent responses by
  /// request id, so a duplicated request re-sends its cached response
  /// instead of executing twice, and requests still in flight on a worker
  /// are not double-queued. request id 0 (framing errors) is never cached.
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> resp_cache;
  std::set<std::uint32_t> in_flight;
};

/// Bounded per-connection response cache depth (covers a retry burst; a
/// duplicate older than this re-executes, which exactly-once step sequence
/// numbers make safe).
constexpr std::size_t kRespCacheDepth = 8;

[[nodiscard]] std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

enum class SendState { kDone, kBlocked, kBroken };

/// Sends data[done, n) until all of it is out, the socket would block or the
/// peer is gone; `done` advances by what was sent. MSG_NOSIGNAL: a peer that
/// vanished mid-write yields EPIPE on this connection instead of a
/// process-wide SIGPIPE.
SendState send_from(int fd, const std::uint8_t* data, std::size_t n,
                    std::size_t& done) {
  while (done < n) {
    const ssize_t k = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (k > 0) {
      done += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return SendState::kBlocked;
    }
    return SendState::kBroken;  // EPIPE/ECONNRESET/EOF: this peer only
  }
  return SendState::kDone;
}

/// The one send routine of the loop and the workers. Caller holds
/// out_mutex on a live connection. `frame` goes behind whatever is queued:
/// straight to the socket when nothing is, otherwise after the outbox; the
/// bytes the socket does not take stay in the outbox.
SendState write_locked(Connection& conn, const std::uint8_t* frame,
                       std::size_t n) {
  if (conn.outbox.empty()) {
    std::size_t sent = 0;
    const SendState state = send_from(conn.fd, frame, n, sent);
    if (state != SendState::kDone) conn.outbox.assign(frame + sent, frame + n);
    return state;
  }
  if (n > 0) conn.outbox.insert(conn.outbox.end(), frame, frame + n);
  const SendState state = send_from(conn.fd, conn.outbox.data(),
                                    conn.outbox.size(), conn.out_written);
  if (state == SendState::kDone) {
    conn.outbox.clear();
    conn.out_written = 0;
  }
  return state;
}

}  // namespace

struct SessionServer::Impl {
  explicit Impl(ServerConfig cfg)
      : config(cfg),
        runtime(cfg.runtime),
        connections_accepted(
            runtime.metrics().counter("serve.connections_accepted_total")),
        connections_closed(
            runtime.metrics().counter("serve.connections_closed_total")),
        frames_received(
            runtime.metrics().counter("serve.frames_received_total")),
        frames_sent(runtime.metrics().counter("serve.frames_sent_total")),
        bad_frames(runtime.metrics().counter("serve.bad_frames_total")),
        duplicate_requests(
            runtime.metrics().counter("serve.duplicate_requests_total")),
        read_deadline_closed(
            runtime.metrics().counter("serve.read_deadline_closed_total")) {}

  ServerConfig config;
  SessionRuntime runtime;

  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t port = 0;

  std::thread loop_thread;
  std::vector<std::thread> workers;
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::function<void()>> queue;

  // Owned by the loop thread exclusively.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;

  // Connections on which a worker's send stopped short (EAGAIN or a dead
  // peer), to be flushed or closed by the loop on the next eventfd wake.
  std::mutex pending_mutex;
  std::vector<std::shared_ptr<Connection>> pending;

  // Endpoint counters, on the runtime's registry so that
  // runtime.prometheus_text() carries them.
  obs::Counter& connections_accepted;
  obs::Counter& connections_closed;
  obs::Counter& frames_received;
  obs::Counter& frames_sent;
  obs::Counter& bad_frames;
  obs::Counter& duplicate_requests;
  obs::Counter& read_deadline_closed;

  /// Journals are replayed once per server lifetime, on the first start().
  bool recovered = false;
  /// Loop thread only: last housekeeping pass (steady ns).
  std::int64_t last_housekeep_ns = 0;

  void event_loop();
  void housekeep(std::int64_t now_ns);
  void accept_ready();
  void read_ready(const std::shared_ptr<Connection>& conn);
  /// Loop thread: writes what the outbox holds, then closes the connection
  /// or sets its EPOLLOUT interest by what is left.
  void flush(const std::shared_ptr<Connection>& conn);
  void close_conn(const std::shared_ptr<Connection>& conn);
  void set_write_interest(Connection& conn, bool want_write);
  void handle_frame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// Sends one encoded response frame and caches it under `request_id`. On
  /// a worker (`on_loop` false), a send that stops short is handed to the
  /// loop through the pending list.
  void respond(const std::shared_ptr<Connection>& conn,
               std::vector<std::uint8_t> frame, std::uint32_t request_id,
               bool on_loop);
  void wake_loop();
  /// Runs one request; returns its encoded response frame.
  [[nodiscard]] std::vector<std::uint8_t> execute(const Frame& req);
  void worker_main();
};

SessionServer::SessionServer(ServerConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

SessionServer::~SessionServer() { stop(); }

bool SessionServer::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t SessionServer::port() const noexcept { return impl_->port; }

SessionRuntime& SessionServer::runtime() noexcept { return impl_->runtime; }

void SessionServer::start() {
  Impl& s = *impl_;
  if (s.running.load(std::memory_order_acquire)) return;

  // Crash recovery happens before the listener exists: a client can never
  // observe a half-recovered runtime.
  if (!s.recovered && !s.config.runtime.state_dir.empty()) {
    s.runtime.recover();
    s.recovered = true;
  }

  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) {
    throw ConfigError("session server: socket() failed: " +
                      std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(s.config.port);
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(s.listen_fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw ConfigError("session server: cannot listen on port " +
                      std::to_string(s.config.port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  s.port = ntohs(addr.sin_port);
  set_nonblocking(s.listen_fd);

  s.epoll_fd = ::epoll_create1(0);
  s.wake_fd = ::eventfd(0, EFD_NONBLOCK);
  if (s.epoll_fd < 0 || s.wake_fd < 0) {
    if (s.epoll_fd >= 0) ::close(s.epoll_fd);
    if (s.wake_fd >= 0) ::close(s.wake_fd);
    ::close(s.listen_fd);
    s.listen_fd = s.epoll_fd = s.wake_fd = -1;
    throw ConfigError("session server: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = s.listen_fd;
  ::epoll_ctl(s.epoll_fd, EPOLL_CTL_ADD, s.listen_fd, &ev);
  ev.data.fd = s.wake_fd;
  ::epoll_ctl(s.epoll_fd, EPOLL_CTL_ADD, s.wake_fd, &ev);

  s.stopping.store(false, std::memory_order_release);
  s.running.store(true, std::memory_order_release);

  unsigned workers = s.config.workers;
  if (workers == 0) {
    workers = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  s.workers.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    s.workers.emplace_back([&s] { s.worker_main(); });
  }
  s.loop_thread = std::thread([&s] { s.event_loop(); });
}

void SessionServer::stop() {
  Impl& s = *impl_;
  if (!s.running.load(std::memory_order_acquire)) return;
  s.stopping.store(true, std::memory_order_release);
  s.queue_cv.notify_all();
  for (auto& w : s.workers) w.join();
  s.workers.clear();
  {
    std::lock_guard<std::mutex> lk(s.queue_mutex);
    s.queue.clear();
  }
  s.wake_loop();
  s.loop_thread.join();
  ::close(s.listen_fd);
  ::close(s.epoll_fd);
  ::close(s.wake_fd);
  s.listen_fd = s.epoll_fd = s.wake_fd = -1;
  s.port = 0;
  {
    std::lock_guard<std::mutex> lk(s.pending_mutex);
    s.pending.clear();
  }
  s.running.store(false, std::memory_order_release);
}

void SessionServer::Impl::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

void SessionServer::Impl::event_loop() {
  constexpr int kMaxEvents = 32;
  epoll_event events[kMaxEvents];
  // Deadlines and TTLs need a periodic tick; without them the loop blocks
  // indefinitely (the eventfd wakes it for responses and shutdown).
  const bool ticking = config.read_deadline_ms > 0 ||
                       runtime.config().idle_session_ttl_s > 0.0;
  int tick_ms = -1;
  if (ticking) {
    tick_ms = 50;
    if (config.read_deadline_ms > 0) {
      const int quarter = static_cast<int>(config.read_deadline_ms / 4);
      tick_ms = std::min(tick_ms, std::max(5, quarter));
    }
  }
  last_housekeep_ns = steady_ns();
  while (!stopping.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd, events, kMaxEvents, tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ticking) {
      const std::int64_t now = steady_ns();
      if (now - last_housekeep_ns >=
          static_cast<std::int64_t>(tick_ms) * 1'000'000) {
        housekeep(now);
        last_housekeep_ns = now;
      }
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd) {
        std::uint64_t drained;
        while (::read(wake_fd, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> to_flush;
        {
          std::lock_guard<std::mutex> lk(pending_mutex);
          to_flush.swap(pending);
        }
        for (const auto& conn : to_flush) {
          if (!conn->dead) flush(conn);
        }
        continue;
      }
      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      auto conn = it->second;  // keep alive across close_conn
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) read_ready(conn);
      if (!conn->dead && (events[i].events & EPOLLOUT)) flush(conn);
    }
  }
  // Shutdown: drop every connection.
  for (auto& [fd, conn] : conns) {
    std::lock_guard<std::mutex> lk(conn->out_mutex);
    conn->dead = true;
    ::close(conn->fd);
  }
  conns.clear();
}

void SessionServer::Impl::housekeep(std::int64_t now_ns) {
  if (config.read_deadline_ms > 0) {
    const std::int64_t limit =
        static_cast<std::int64_t>(config.read_deadline_ms) * 1'000'000;
    std::vector<std::shared_ptr<Connection>> overdue;
    for (const auto& [fd, conn] : conns) {
      if (conn->partial_since_ns != 0 &&
          now_ns - conn->partial_since_ns > limit) {
        overdue.push_back(conn);
      }
    }
    for (const auto& conn : overdue) {
      read_deadline_closed.add();
      close_conn(conn);
    }
  }
  if (runtime.config().idle_session_ttl_s > 0.0) runtime.reap_idle();
}

void SessionServer::Impl::accept_ready() {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) return;  // EAGAIN or error: either way, done for now
    set_nonblocking(client);
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(client);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = client;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, client, &ev);
    conns.emplace(client, std::move(conn));
    connections_accepted.add();
  }
}

void SessionServer::Impl::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      try {
        conn->parser.feed(buf, static_cast<std::size_t>(n));
        while (auto frame = conn->parser.next()) {
          frames_received.add();
          handle_frame(conn, std::move(*frame));
          if (conn->dead) return;
        }
        // Restart the partial-frame clock on every read: a peer trickling
        // one frame byte-by-byte keeps the *same* deadline only while the
        // frame stays incomplete.
        conn->partial_since_ns =
            conn->parser.buffered() > 0
                ? (conn->partial_since_ns != 0 ? conn->partial_since_ns
                                               : steady_ns())
                : 0;
      } catch (const Error& e) {
        // Framing error: best-effort typed error response, then close (the
        // stream offset can no longer be trusted).
        bad_frames.add();
        FrameWriter err(Opcode::kHello, 0);
        err.payload().str(e.what());
        {
          std::lock_guard<std::mutex> lk(conn->out_mutex);
          conn->close_after_flush = true;
        }
        respond(conn, err.finish(e.code(), 0), 0, /*on_loop=*/true);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EOF or hard error.
    close_conn(conn);
    return;
  }
}

void SessionServer::Impl::set_write_interest(Connection& conn,
                                             bool want_write) {
  if (conn.write_armed == want_write) return;
  conn.write_armed = want_write;
  epoll_event ev{};
  ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void SessionServer::Impl::flush(const std::shared_ptr<Connection>& conn) {
  SendState state = SendState::kDone;
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lk(conn->out_mutex);
    if (conn->dead) return;
    state = write_locked(*conn, nullptr, 0);
    close_now = state == SendState::kBroken ||
                (state == SendState::kDone && conn->close_after_flush);
  }
  if (close_now) {
    close_conn(conn);
    return;
  }
  set_write_interest(*conn, state == SendState::kBlocked);
}

void SessionServer::Impl::close_conn(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->out_mutex);
    if (conn->dead) return;
    conn->dead = true;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  conns.erase(conn->fd);
  connections_closed.add();
}

void SessionServer::Impl::respond(const std::shared_ptr<Connection>& conn,
                                  std::vector<std::uint8_t> frame,
                                  std::uint32_t request_id, bool on_loop) {
  SendState state = SendState::kDone;
  {
    std::lock_guard<std::mutex> lk(conn->out_mutex);
    if (!conn->dead) state = write_locked(*conn, frame.data(), frame.size());
    if (request_id != 0) {
      // The bytes just sent are the bytes a duplicate gets: no copy.
      conn->in_flight.erase(request_id);
      conn->resp_cache.emplace_back(request_id, std::move(frame));
      if (conn->resp_cache.size() > kRespCacheDepth) {
        conn->resp_cache.pop_front();
      }
    }
  }
  frames_sent.add();
  if (on_loop) {
    flush(conn);
  } else if (state != SendState::kDone) {
    {
      std::lock_guard<std::mutex> lk(pending_mutex);
      pending.push_back(conn);
    }
    wake_loop();
  }
}

std::vector<std::uint8_t> SessionServer::Impl::execute(const Frame& req) {
  FrameWriter out(req.opcode, req.request_id);
  std::uint32_t session_id = req.session_id;
  ErrorCode status = ErrorCode::kInternal;
  std::string message;
  try {
    WireReader r(req.payload);
    WireWriter& w = out.payload();
    switch (req.opcode) {
      case Opcode::kHello: {
        r.expect_end();
        w.str("citl-wire-v1");
        break;
      }
      case Opcode::kCreateSession: {
        const api::SessionConfig session_config = decode_session_config(r);
        // Optional u64 tail: idempotent-create nonce (retry-safe create).
        const std::uint64_t nonce = r.remaining() == 8 ? r.u64() : 0;
        r.expect_end();
        const std::uint32_t id = runtime.create(session_config, nonce);
        session_id = id;
        const SessionInfo info = runtime.info(id);
        w.u32(info.schedule_length);
        w.f64(info.budget_cycles);
        w.f64(info.occupancy_estimate);
        break;
      }
      case Opcode::kSetParam: {
        const std::string name = r.str();
        const double value = r.f64();
        r.expect_end();
        runtime.set_param(req.session_id, name, value);
        break;
      }
      case Opcode::kGetParam: {
        const std::string name = r.str();
        r.expect_end();
        w.f64(runtime.param(req.session_id, name));
        break;
      }
      case Opcode::kSetState: {
        const std::string name = r.str();
        const double value = r.f64();
        r.expect_end();
        runtime.set_state(req.session_id, name, value);
        break;
      }
      case Opcode::kGetState: {
        const std::string name = r.str();
        r.expect_end();
        w.f64(runtime.state(req.session_id, name));
        break;
      }
      case Opcode::kEnableControl: {
        const bool on = r.u8() != 0;
        r.expect_end();
        runtime.enable_control(req.session_id, on);
        break;
      }
      case Opcode::kStep: {
        const std::uint32_t turns = r.u32();
        // Optional u64 tail: exactly-once step sequence number.
        const std::uint64_t step_seq = r.remaining() == 8 ? r.u64() : 0;
        r.expect_end();
        // The records must fit one response frame: refuse a longer step
        // before the runtime runs or journals it.
        if (turns > kMaxStepTurns) {
          throw ConfigError(
              "step of " + std::to_string(turns) + " turns exceeds the " +
                  std::to_string(kMaxStepTurns) +
                  " records one citl-wire-v1 response frame holds "
                  "(kMaxFrameBytes)",
              ErrorCode::kOutOfRange);
        }
        encode_step_records(w, runtime.step(req.session_id, turns, step_seq));
        break;
      }
      case Opcode::kAttachSession: {
        r.expect_end();
        const SessionInfo info = runtime.info(req.session_id);
        w.f64(info.time_s);
        w.u64(static_cast<std::uint64_t>(info.turn));
        w.u64(info.last_step_seq);
        break;
      }
      case Opcode::kSnapshot: {
        r.expect_end();
        w.u32(runtime.snapshot(req.session_id));
        break;
      }
      case Opcode::kRestore: {
        const std::uint32_t snap = r.u32();
        r.expect_end();
        runtime.restore(req.session_id, snap);
        break;
      }
      case Opcode::kDestroySession: {
        r.expect_end();
        runtime.destroy(req.session_id);
        break;
      }
      case Opcode::kStats: {
        r.expect_end();
        const RuntimeStats st = runtime.stats();
        w.u32(static_cast<std::uint32_t>(st.active_sessions));
        w.u64(st.sessions_created);
        w.u64(st.admission_rejections);
        w.u64(st.step_requests);
        w.u64(st.turns_stepped);
        w.f64(st.occupancy_admitted);
        w.u64(st.sessions_recovered);
        w.u64(st.sessions_reaped);
        w.u64(st.step_replays);
        break;
      }
      default:
        throw Error("unknown opcode " +
                        std::to_string(static_cast<int>(req.opcode)),
                    ErrorCode::kBadFrame);
    }
    return out.finish(ErrorCode::kOk, session_id);
  } catch (const Error& e) {
    status = e.code();
    message = e.what();
  } catch (const std::exception& e) {
    status = ErrorCode::kInternal;
    message = e.what();
  }
  out.clear_payload();
  out.payload().str(message);
  return out.finish(status, session_id);
}

void SessionServer::Impl::handle_frame(const std::shared_ptr<Connection>& conn,
                                       Frame frame) {
  if (frame.request_id != 0) {
    // Duplicate suppression: a retried request whose original response is
    // cached gets that response re-sent verbatim; a duplicate of a request
    // still executing is dropped (its response is already on the way).
    bool resend = false;
    {
      std::lock_guard<std::mutex> lk(conn->out_mutex);
      for (const auto& [id, bytes] : conn->resp_cache) {
        if (id == frame.request_id) {
          write_locked(*conn, bytes.data(), bytes.size());
          resend = true;
          break;
        }
      }
      if (!resend && !conn->in_flight.insert(frame.request_id).second) {
        duplicate_requests.add();
        return;
      }
    }
    if (resend) {
      duplicate_requests.add();
      frames_sent.add();
      flush(conn);
      return;
    }
  }
  if (frame.opcode == Opcode::kStep) {
    // The only request whose cost scales with its argument: run it on a
    // worker so a long step cannot stall other clients' round trips.
    auto task = [this, conn, frame = std::move(frame)]() {
      respond(conn, execute(frame), frame.request_id, /*on_loop=*/false);
    };
    {
      std::lock_guard<std::mutex> lk(queue_mutex);
      queue.push_back(std::move(task));
    }
    queue_cv.notify_one();
    return;
  }
  respond(conn, execute(frame), frame.request_id, /*on_loop=*/true);
}

void SessionServer::Impl::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(queue_mutex);
      queue_cv.wait(lk, [&] {
        return stopping.load(std::memory_order_acquire) || !queue.empty();
      });
      if (stopping.load(std::memory_order_acquire)) return;
      task = std::move(queue.front());
      queue.pop_front();
    }
    task();
  }
}

}  // namespace citl::serve
