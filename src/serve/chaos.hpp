// ChaosProxy: a deterministic wire-level fault injector for citl-wire-v1.
//
// A loopback TCP proxy that sits between a SessionClient and a
// SessionServer and mistreats the byte stream the way a hostile network
// would: frames arrive torn in two (a forced partial read on the far side),
// delayed, duplicated (client→server only — the retry shape), or the
// connection is dropped outright mid-conversation. The ServeChaos tests
// drive client/server traffic through it and assert the robustness
// contract: every request either completes bit-identically to the
// fault-free run or fails with a typed error — never a hang, never silent
// corruption.
//
// Determinism is the point, exactly as in src/fault: every decision comes
// from a citl::Rng stream derived with fault::derive_stream from
// (config.seed, connection index, direction), so a failing schedule is a
// seed, not a flake. Decisions are made per *frame*, not per TCP segment:
// the proxy reassembles each direction's stream with the citl-wire-v1
// length prefix and rolls the dice once per complete frame, which keeps a
// schedule identical regardless of how the kernel chunked the bytes.
//
// Bytes that do not parse as frames (no valid length prefix within bounds)
// are forwarded verbatim — the proxy degrades to a plain relay rather than
// stalling on traffic it does not understand.
#pragma once

#include <cstdint>
#include <memory>

namespace citl::serve {

struct ChaosConfig {
  /// Server to forward to on 127.0.0.1 (required).
  std::uint16_t upstream_port = 0;
  /// Port to listen on (0 = kernel-assigned ephemeral port).
  std::uint16_t listen_port = 0;
  /// Master seed; per-connection per-direction streams derive from it.
  std::uint64_t seed = 1;
  // Per-frame fault probabilities (cumulative bands of one uniform draw, so
  // they must sum to ≤ 1; the remainder forwards the frame untouched).
  double drop_prob = 0.0;       ///< kill the whole connection
  double tear_prob = 0.0;       ///< split the frame, pause between halves
  double delay_prob = 0.0;      ///< pause, then forward intact
  double duplicate_prob = 0.0;  ///< send the frame twice (client→server only)
  /// Pause used by tears and delays.
  std::uint32_t delay_ms = 5;
};

/// Monotonic counters, snapshot via ChaosProxy::stats().
struct ChaosStats {
  std::uint64_t connections = 0;
  std::uint64_t frames_forwarded = 0;  ///< includes the mistreated ones
  std::uint64_t frames_torn = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t connections_dropped = 0;  ///< by drop_prob, not by peers
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosConfig config);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Binds the listener and starts relaying. Throws ConfigError when the
  /// listener cannot bind.
  void start();
  /// Severs every relayed connection and joins all pump threads. Idempotent.
  void stop();

  /// Bound listener port (after start with listen_port 0); 0 when stopped.
  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] ChaosStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace citl::serve
