#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace citl::serve {

namespace {

[[nodiscard]] bool is_config_code(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidConfig:
    case ErrorCode::kUnknownKey:
    case ErrorCode::kOutOfRange:
    case ErrorCode::kUnsupported:
    case ErrorCode::kAdmissionRejected:
      return true;
    default:
      return false;
  }
}

/// Re-throws a response's error status as the library-equivalent exception.
[[noreturn]] void throw_status(ErrorCode code, const std::string& message) {
  if (is_config_code(code)) throw ConfigError(message, code);
  throw Error(message, code);
}

/// Transport-layer failure (timeout, dropped connection, torn stream): the
/// retryable class of error, as opposed to a typed protocol answer from the
/// server which is deterministic and must not be retried.
struct TransportError : Error {
  using Error::Error;
};

[[nodiscard]] std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_socket_timeout(int fd, int option, std::uint32_t ms) {
  if (ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

[[nodiscard]] ClientConfig config_for_port(std::uint16_t port) {
  ClientConfig config;
  config.port = port;
  return config;
}

}  // namespace

SessionClient::SessionClient(std::uint16_t port)
    : SessionClient(config_for_port(port)) {}

SessionClient::SessionClient(const ClientConfig& config)
    : config_(config),
      jitter_(config.retry.jitter_seed),
      // Nonces must be unique across clients (they key idempotent creates
      // server-side), so unlike the jitter stream this seed is not
      // reproducible: it mixes wall-clock entropy and the object address.
      nonce_rng_(config.retry.jitter_seed ^
                 static_cast<std::uint64_t>(steady_ns()) ^
                 reinterpret_cast<std::uintptr_t>(this)) {
  connect_now();
}

SessionClient::~SessionClient() {
  if (fd_ >= 0) ::close(fd_);
}

void SessionClient::connect_now() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ConfigError("session client: socket() failed: " +
                      std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw ConfigError("session client: cannot connect to 127.0.0.1:" +
                      std::to_string(config_.port) + ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_socket_timeout(fd_, SO_RCVTIMEO, config_.recv_timeout_ms);
  set_socket_timeout(fd_, SO_SNDTIMEO, config_.send_timeout_ms);
  parser_ = FrameParser();

  Frame req;
  req.opcode = Opcode::kHello;
  req.request_id = next_request_id_++;
  const Frame hello = transact(encode_frame(req), req.request_id);
  if (hello.status != ErrorCode::kOk) {
    WireReader r(hello.payload);
    throw_status(hello.status, r.str());
  }
  WireReader r(hello.payload);
  const std::string magic = r.str();
  r.expect_end();
  if (magic != "citl-wire-v1") {
    throw ConfigError("session client: unexpected handshake \"" + magic +
                          "\"",
                      ErrorCode::kBadFrame);
  }
}

void SessionClient::drop_connection() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  parser_ = FrameParser();
}

Frame SessionClient::transact(const std::vector<std::uint8_t>& bytes,
                              std::uint32_t request_id) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    // MSG_NOSIGNAL: a server that vanished mid-send is EPIPE here, not a
    // process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw TransportError("session client: send timed out",
                           ErrorCode::kTimeout);
    }
    throw TransportError("session client: send failed: " +
                             std::string(std::strerror(errno)),
                         ErrorCode::kInternal);
  }

  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = parser_.next();
    } catch (const Error& e) {
      // A torn/corrupted response stream cannot be resynchronised; retry
      // goes through a fresh connection.
      throw TransportError(
          std::string("session client: response stream broken: ") + e.what(),
          ErrorCode::kBadFrame);
    }
    if (frame) {
      if (frame->request_id == request_id) return std::move(*frame);
      if (frame->request_id < request_id) continue;  // stale duplicate
      throw TransportError(
          "session client: response correlates to request " +
              std::to_string(frame->request_id) + ", expected " +
              std::to_string(request_id),
          ErrorCode::kBadFrame);
    }
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw TransportError("session client: receive timed out",
                           ErrorCode::kTimeout);
    }
    throw TransportError(
        "session client: connection closed by server while waiting for a "
        "response",
        ErrorCode::kInternal);
  }
}

Frame SessionClient::request(Opcode op, std::uint32_t session_id,
                             std::vector<std::uint8_t> payload) {
  Frame req;
  req.opcode = op;
  req.request_id = next_request_id_++;
  req.session_id = session_id;
  req.payload = std::move(payload);
  // One encoding for every attempt: a retry re-sends the identical bytes,
  // so server-side dedupe (request id, create nonce, step sequence) sees
  // the same request, not a near-copy.
  const std::vector<std::uint8_t> bytes = encode_frame(req);

  const RetryPolicy& rp = config_.retry;
  const unsigned max_attempts = std::max(1u, rp.max_attempts);
  const std::int64_t deadline_ns =
      rp.deadline_ms == 0
          ? 0
          : steady_ns() + static_cast<std::int64_t>(rp.deadline_ms) * 1'000'000;

  for (unsigned attempt = 1;; ++attempt) {
    try {
      if (fd_ < 0) {
        if (!config_.reconnect) {
          throw TransportError(
              "session client: connection lost and reconnect is disabled",
              ErrorCode::kInternal);
        }
        try {
          connect_now();
        } catch (const TransportError&) {
          throw;
        } catch (const Error& e) {
          throw TransportError(e.what(), ErrorCode::kInternal);
        }
        ++stats_.reconnects;
      }
      Frame resp = transact(bytes, req.request_id);
      if (resp.status != ErrorCode::kOk) {
        WireReader r(resp.payload);
        throw_status(resp.status, r.str());
      }
      return resp;
    } catch (const TransportError& e) {
      drop_connection();
      if (e.code() == ErrorCode::kTimeout) ++stats_.timeouts;
      if (attempt >= max_attempts) {
        if (attempt == 1) throw;  // fail-fast config: original typed error
        throw Error("session client: " + std::string(opcode_name(op)) +
                        " gave up after " + std::to_string(attempt) +
                        " attempts: " + e.what(),
                    ErrorCode::kRetryExhausted);
      }
      double backoff_ms = static_cast<double>(rp.initial_backoff_ms) *
                          std::pow(rp.multiplier, attempt - 1);
      backoff_ms = std::min(backoff_ms, static_cast<double>(rp.max_backoff_ms));
      backoff_ms *= 0.5 + 0.5 * jitter_.uniform();
      const std::int64_t sleep_ns = static_cast<std::int64_t>(backoff_ms * 1e6);
      if (deadline_ns != 0 && steady_ns() + sleep_ns > deadline_ns) {
        throw Error("session client: " + std::string(opcode_name(op)) +
                        " exceeded its " + std::to_string(rp.deadline_ms) +
                        " ms retry deadline: " + e.what(),
                    ErrorCode::kRetryExhausted);
      }
      ++stats_.retries;
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
    }
  }
}

CreateResult SessionClient::create(const api::SessionConfig& config) {
  WireWriter w;
  encode_session_config(w, config);
  std::uint64_t nonce = nonce_rng_.next_u64();
  if (nonce == 0) nonce = 1;  // 0 means "no nonce" on the wire
  w.u64(nonce);
  const Frame resp = request(Opcode::kCreateSession, 0, w.take());
  WireReader r(resp.payload);
  CreateResult out;
  out.session_id = resp.session_id;
  out.schedule_length = r.u32();
  out.budget_cycles = r.f64();
  out.occupancy_estimate = r.f64();
  r.expect_end();
  step_seq_[out.session_id] = 0;
  return out;
}

void SessionClient::destroy(std::uint32_t session_id) {
  const std::uint64_t retries_before = stats_.retries;
  const std::uint64_t reconnects_before = stats_.reconnects;
  try {
    request(Opcode::kDestroySession, session_id, {});
  } catch (const Error& e) {
    // A destroy retried across a drop may find the first attempt already
    // landed; that is success, not failure.
    const bool retried = stats_.retries != retries_before ||
                         stats_.reconnects != reconnects_before;
    if (!(retried && e.code() == ErrorCode::kNotFound)) throw;
  }
  step_seq_.erase(session_id);
}

AttachResult SessionClient::attach(std::uint32_t session_id) {
  const Frame resp = request(Opcode::kAttachSession, session_id, {});
  WireReader r(resp.payload);
  AttachResult out;
  out.time_s = r.f64();
  out.turn = r.u64();
  out.last_step_seq = r.u64();
  r.expect_end();
  step_seq_[session_id] = out.last_step_seq;
  return out;
}

std::vector<hil::TurnRecord> SessionClient::step(std::uint32_t session_id,
                                                 std::uint32_t turns) {
  // Exactly-once: the sequence number commits only after the response, so a
  // retried step re-sends the same seq and the server answers a duplicate
  // from its cached records instead of stepping twice.
  const std::uint64_t seq = step_seq_[session_id] + 1;
  WireWriter w;
  w.u32(turns);
  w.u64(seq);
  const Frame resp = request(Opcode::kStep, session_id, w.take());
  step_seq_[session_id] = seq;
  WireReader r(resp.payload);
  return decode_step_records(r);
}

void SessionClient::set_param(std::uint32_t session_id, std::string_view name,
                              double value) {
  WireWriter w;
  w.str(name);
  w.f64(value);
  request(Opcode::kSetParam, session_id, w.take());
}

double SessionClient::param(std::uint32_t session_id, std::string_view name) {
  WireWriter w;
  w.str(name);
  const Frame resp = request(Opcode::kGetParam, session_id, w.take());
  WireReader r(resp.payload);
  const double v = r.f64();
  r.expect_end();
  return v;
}

void SessionClient::set_state(std::uint32_t session_id, std::string_view name,
                              double value) {
  WireWriter w;
  w.str(name);
  w.f64(value);
  request(Opcode::kSetState, session_id, w.take());
}

double SessionClient::state(std::uint32_t session_id, std::string_view name) {
  WireWriter w;
  w.str(name);
  const Frame resp = request(Opcode::kGetState, session_id, w.take());
  WireReader r(resp.payload);
  const double v = r.f64();
  r.expect_end();
  return v;
}

void SessionClient::enable_control(std::uint32_t session_id, bool on) {
  WireWriter w;
  w.u8(on ? 1 : 0);
  request(Opcode::kEnableControl, session_id, w.take());
}

std::uint32_t SessionClient::snapshot(std::uint32_t session_id) {
  const Frame resp = request(Opcode::kSnapshot, session_id, {});
  WireReader r(resp.payload);
  const std::uint32_t id = r.u32();
  r.expect_end();
  return id;
}

void SessionClient::restore(std::uint32_t session_id,
                            std::uint32_t snapshot_id) {
  WireWriter w;
  w.u32(snapshot_id);
  request(Opcode::kRestore, session_id, w.take());
}

StatsResult SessionClient::stats() {
  const Frame resp = request(Opcode::kStats, 0, {});
  WireReader r(resp.payload);
  StatsResult out;
  out.active_sessions = r.u32();
  out.sessions_created = r.u64();
  out.admission_rejections = r.u64();
  out.step_requests = r.u64();
  out.turns_stepped = r.u64();
  out.occupancy_admitted = r.f64();
  out.sessions_recovered = r.u64();
  out.sessions_reaped = r.u64();
  out.step_replays = r.u64();
  r.expect_end();
  return out;
}

}  // namespace citl::serve
