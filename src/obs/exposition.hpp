// Prometheus text exposition (format 0.0.4) for the obs layer — the first
// concrete slice of ROADMAP item 2's HIL-as-a-service surface.
//
// Two pieces:
//   * the renderer that turns a MetricsSnapshot into valid Prometheus text:
//     `# TYPE` lines, cumulative `le`-labelled histogram buckets terminated
//     by `+Inf`, and `_count`/`_sum` series (the registry histogram itself
//     uses upper-inclusive bounds — see obs/metrics.hpp — so the cumulative
//     buckets rendered here are exact, not off by the on-boundary count),
//   * ScrapeServer: a deliberately minimal blocking single-threaded HTTP
//     endpoint serving `GET /metrics`. Opt-in and off by default — nothing
//     in the stack opens a socket unless an operator asks for it — and
//     never on a simulation thread, so it cannot perturb deterministic
//     results.
//
// Naming: registry names are dotted lower_snake ("sweep.kernel_cache.hits");
// exposition maps them to `citl_` + dots→underscores
// ("citl_sweep_kernel_cache_hits"). A registry name may carry a bracketed
// label suffix, `base[key=value,key2=value2]` — e.g. the per-op cycle
// attribution counters "cgra.op_cycles[op=mul,fu=mul]" — which renders as
// `citl_cgra_op_cycles{op="mul",fu="mul"}`; series sharing a base name share
// one `# TYPE` line.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace citl::obs {

/// Maps a registry name (dots, label brackets) to a bare Prometheus metric
/// name: "citl_" prefix, dots and other invalid characters become '_', any
/// "[...]" label suffix is stripped.
[[nodiscard]] std::string prometheus_name(std::string_view registry_name);

/// Renders a full snapshot as Prometheus 0.0.4 text (counters, gauges,
/// histograms with cumulative buckets / `+Inf` / `_count` / `_sum`).
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);
/// Convenience: snapshot + render in one call.
[[nodiscard]] std::string prometheus_text(const Registry& registry);

/// Minimal blocking single-threaded HTTP scrape endpoint.
///
/// One background thread accepts one connection at a time, answers
/// `GET /metrics` with the registry's exposition text plus every registered
/// collector's output, and closes. No keep-alive, no TLS, no concurrency —
/// a Prometheus scraper polling every few seconds needs none of those, and
/// the single-threaded loop keeps the attack/bug surface near zero.
class ScrapeServer {
 public:
  /// Extra exposition text appended after the registry render (a session
  /// runtime's series, attribution tables, ...). Must return valid
  /// Prometheus text ending in '\n'. Called on the server thread.
  using Collector = std::function<std::string()>;

  explicit ScrapeServer(const Registry& registry = Registry::global());
  ~ScrapeServer();

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Registers a collector. Only valid before start().
  void add_collector(Collector fn);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and starts
  /// the accept loop. Throws ConfigError if the socket cannot be bound.
  void start(std::uint16_t port = 0);
  /// Stops the accept loop and joins the server thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound port (useful after start(0)); 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The exact body a scrape returns right now (registry + collectors) —
  /// also usable without any socket, e.g. to dump exposition text to a file
  /// at the end of a sweep.
  [[nodiscard]] std::string render() const;

 private:
  void serve_loop();

  const Registry* registry_;
  std::vector<Collector> collectors_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

}  // namespace citl::obs
