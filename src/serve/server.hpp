// SessionServer: the citl-wire-v1 endpoint in front of a SessionRuntime.
//
// One epoll event-loop thread owns every socket's lifecycle: it accepts
// connections on a loopback listener, reads and splits the inbound byte
// stream into frames (serve::FrameParser), executes cheap operations inline,
// and closes connections. kStep requests — the only operation whose cost
// scales with its argument, up to kMaxStepTurns (21845) turns, the most one
// response frame holds — go to a small worker pool, so one long step cannot
// stall another client's create/get/stats round trip.
//
// A response is encoded once, straight into its frame, and written by the
// thread that produced it: a step's worker sends its own response when the
// connection has nothing queued, under the connection's out_mutex. Whatever
// the socket does not take (EAGAIN) or a failed send goes to the loop
// through a pending list and an eventfd; the loop finishes it behind an
// EPOLLOUT interest, which it re-arms only when the interest changes. The
// loop closes a connection under the same mutex and marks it dead, so no
// worker ever writes to a closed or reused descriptor.
//
// Error handling mirrors the library exactly: a handler failure is caught,
// classified by its citl::ErrorCode, and returned as a response frame whose
// status carries that code and whose payload is the exception message. A
// malformed frame (bad version, bad length, truncated payload) earns a
// kBadFrame response on a best-effort basis and the connection is closed —
// after a framing error the stream offset can no longer be trusted.
//
// Robustness (docs/SERVING.md "Durability" section): a peer that vanishes
// mid-write (EPIPE/ECONNRESET) costs exactly its own connection — writes use
// MSG_NOSIGNAL and the failure path closes that fd without touching other
// sessions. A housekeeping tick drives partial-frame read deadlines
// (slow-loris guard) and idle-session TTL reaping. Each connection keeps a
// small cache of its most recent responses keyed by request id, so a
// duplicated request (a retry racing its own delayed response) is answered
// from the cache instead of executed twice.
//
// Loopback only, by design: like the scrape endpoint, nothing binds a
// non-local interface. Remote deployment goes through a fronting proxy.
#pragma once

#include <cstdint>

#include "serve/runtime.hpp"

namespace citl::serve {

struct ServerConfig {
  /// Port to bind on 127.0.0.1 (0 = kernel-assigned ephemeral port).
  std::uint16_t port = 0;
  /// Worker threads executing kStep requests. 0 = min(4, hardware).
  unsigned workers = 0;
  /// Slow-loris guard: a connection holding a *partial* frame (some bytes
  /// arrived, the length prefix is not yet satisfied) longer than this is
  /// closed by the housekeeping tick. 0 disables the deadline. Complete
  /// frames are unaffected — an idle connection between requests never
  /// trips it.
  std::uint32_t read_deadline_ms = 0;
  /// Durability and TTL-reaping knobs live on the runtime: set
  /// runtime.state_dir for journaling + crash recovery (start() replays the
  /// journals found there before accepting connections) and
  /// runtime.idle_session_ttl_s for idle-session reaping (driven by the
  /// same housekeeping tick as the read deadline).
  RuntimeConfig runtime;
};

class SessionServer {
 public:
  explicit SessionServer(ServerConfig config = {});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Binds the listener and starts the event loop + workers. Throws
  /// ConfigError if the port cannot be bound.
  void start();
  /// Drains workers, closes every connection, joins the loop. Idempotent.
  void stop();

  /// Bound port (useful after start with port 0); 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// The runtime behind the endpoint — in-process callers (tests, the
  /// metrics collector) share it with wire clients. The endpoint counts its
  /// connections and frames on runtime().metrics(), so
  /// runtime().prometheus_text() is the whole `citl_serve_*` exposition.
  [[nodiscard]] SessionRuntime& runtime() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace citl::serve
