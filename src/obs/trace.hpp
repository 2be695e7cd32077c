// Structured event tracer emitting Chrome trace-event JSON.
//
// The output loads directly into chrome://tracing or https://ui.perfetto.dev
// and shows, per thread, where the wall-clock time of a run went: kernel
// compilation passes, sweep chunks, CGRA revolutions, plus
// counter tracks (e.g. the sweep's pending-scenario queue depth).
//
// Mechanics:
//   * each thread appends into its own buffer (registered with the tracer on
//     first use), so tracing adds no cross-thread contention on the hot
//     path; buffers are merged only when the JSON is rendered,
//   * timestamps are steady-clock nanoseconds since the tracer's epoch —
//     they are WALL-CLOCK values and must never reach a deterministic
//     report; the tracer writes only to its own JSON file (same contract as
//     the sweep's wall_time_s handling, see docs/TESTING.md),
//   * a disabled tracer reduces every span to one relaxed atomic load; the
//     global tracer starts disabled.
//
// Span names passed as string_view must outlive the span (string literals
// and scenario names owned by the sweep config both qualify).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace citl::obs {

/// One trace event, Chrome trace-event phases: 'X' (complete span),
/// 'i' (instant), 'C' (counter sample).
struct TraceEvent {
  std::string name;
  char phase = 'X';
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since tracer epoch
  std::uint64_t dur_ns = 0;  ///< span duration ('X' only)
  double value = 0.0;        ///< counter value ('C' only)
};

class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Emits an instant marker on the calling thread's track.
  void instant(std::string_view name);
  /// Emits a counter sample; Perfetto renders these as a value-over-time
  /// track.
  void counter(std::string_view name, double value);

  /// Total buffered events across all threads.
  [[nodiscard]] std::size_t event_count() const;
  /// Drops all buffered events (thread registrations are kept).
  void clear();

  /// Renders {"traceEvents":[...]} Chrome trace JSON (includes thread-name
  /// metadata events so tracks are labelled).
  [[nodiscard]] std::string json() const;
  /// Writes json() to `path`. Throws ConfigError on IO failure.
  void write_json(const std::string& path) const;

  /// Process-wide tracer used by the built-in instrumentation (starts
  /// disabled).
  static Tracer& global();

 private:
  // Spans capture the enabled decision at construction; their completion
  // must not be re-gated on enabled_ (a mid-span disable would otherwise
  // silently drop the span's whole duration).
  friend class ScopedSpan;

  struct ThreadBuffer {
    std::uint32_t tid = 0;
    mutable std::mutex mutex;  ///< writer = owning thread, reader = json()
    std::vector<TraceEvent> events;
  };

  ThreadBuffer& local_buffer();
  void push(std::string_view name, char phase, std::uint64_t ts_ns,
            std::uint64_t dur_ns, double value);

  std::atomic<bool> enabled_{false};
  std::uint64_t id_;  ///< distinguishes tracers for the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span against a tracer; records nothing when the tracer is disabled
/// at construction time.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        start_ns_(tracer_ != nullptr ? tracer.now_ns() : 0) {}
  /// Span against the global tracer.
  explicit ScopedSpan(std::string_view name)
      : ScopedSpan(Tracer::global(), name) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->push(name_, 'X', start_ns_, tracer_->now_ns() - start_ns_,
                    0.0);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string_view name_;
  std::uint64_t start_ns_;
};

// Convenience: a block-scoped span on the global tracer with a unique
// variable name. `name` must be a string whose storage outlives the scope.
#define CITL_OBS_CONCAT_IMPL(a, b) a##b
#define CITL_OBS_CONCAT(a, b) CITL_OBS_CONCAT_IMPL(a, b)
#define CITL_TRACE_SPAN(name) \
  ::citl::obs::ScopedSpan CITL_OBS_CONCAT(citl_trace_span_, __LINE__)(name)

}  // namespace citl::obs
