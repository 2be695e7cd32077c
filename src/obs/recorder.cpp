#include "obs/recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "io/json.hpp"

namespace citl::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kNote:
      return "note";
    case EventKind::kTurnSummary:
      return "turn_summary";
    case EventKind::kDeadlineMiss:
      return "deadline_miss";
    case EventKind::kFaultWindow:
      return "fault_window";
    case EventKind::kSupervisorDetect:
      return "supervisor_detect";
    case EventKind::kSupervisorRecover:
      return "supervisor_recover";
    case EventKind::kSupervisorRollback:
      return "supervisor_rollback";
    case EventKind::kSupervisorAbort:
      return "supervisor_abort";
    case EventKind::kOracleDivergence:
      return "oracle_divergence";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity_per_thread)
    : id_(next_recorder_id()),
      capacity_(capacity_per_thread > 0 ? capacity_per_thread : 1) {}

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
  // Same caching idiom as Tracer::local_buffer: keyed on the recorder id so
  // a thread switching between recorders re-registers.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadRing* cached = nullptr;
  if (cached_id != id_ || cached == nullptr) {
    std::lock_guard lock(mutex_);
    rings_.push_back(std::make_unique<ThreadRing>());
    cached = rings_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void FlightRecorder::record(EventKind kind, std::int64_t turn, double time_s,
                            double a, double b, std::string_view label) {
  if (!enabled()) return;
  ThreadRing& ring = local_ring();
  std::lock_guard lock(ring.mutex);  // uncontended except during snapshot()
  if (ring.slots.empty()) ring.slots.resize(capacity_);
  FlightEvent& e = ring.slots[ring.head];
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.kind = kind;
  e.turn = turn;
  e.time_s = time_s;
  e.a = a;
  e.b = b;
  const std::size_t n = std::min(label.size(), FlightEvent::kLabelSize - 1);
  // An empty label's data() may be null, which memcpy forbids even at n = 0.
  if (n > 0) std::memcpy(e.label, label.data(), n);
  e.label[n] = '\0';
  ring.head = (ring.head + 1) % capacity_;
  ++ring.written;
}

std::size_t FlightRecorder::event_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    n += std::min<std::uint64_t>(ring->written, capacity_);
  }
  return n;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    if (ring->written > capacity_) n += ring->written - capacity_;
  }
  return n;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    ring->slots.clear();
    ring->head = 0;
    ring->written = 0;
  }
  seq_.store(0, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<FlightEvent> out;
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(ring->written, capacity_));
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring->slots[i]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::string FlightRecorder::dump_json(std::string_view reason) const {
  const std::vector<FlightEvent> events = snapshot();
  io::JsonWriter w;
  w.begin_object();
  w.key("format").value(std::string_view("citl-blackbox-v1"));
  w.key("reason").value(reason);
  w.key("event_count").value(static_cast<std::uint64_t>(events.size()));
  w.key("dropped").value(dropped());
  w.key("capacity_per_thread").value(static_cast<std::uint64_t>(capacity_));
  w.key("events").begin_array();
  for (const FlightEvent& e : events) {
    w.begin_object();
    w.key("seq").value(e.seq);
    w.key("kind").value(std::string_view(event_kind_name(e.kind)));
    w.key("turn").value(static_cast<std::int64_t>(e.turn));
    w.key("time_s").value(e.time_s);
    w.key("a").value(e.a);
    w.key("b").value(e.b);
    if (e.label[0] != '\0') {
      w.key("label").value(std::string_view(e.label));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void FlightRecorder::set_dump_path(std::string path) {
  std::lock_guard lock(mutex_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard lock(mutex_);
  return dump_path_;
}

void FlightRecorder::dump_to_file(std::string_view reason) const {
  const std::string path = dump_path();
  if (path.empty()) return;
  const std::string json = dump_json(reason);
  // Plain stdio, not io::write_text_file: the dump runs on failure paths
  // (Supervisor abort, signal handlers) where throwing would mask the
  // original problem.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

namespace {

void blackbox_signal_handler(int signo) {
  // Not async-signal-safe (allocates, does file IO). Acceptable: the
  // process is crashing anyway, and a partial/failed dump costs nothing.
  const char* name = "signal";
  switch (signo) {
    case SIGSEGV: name = "signal:SIGSEGV"; break;
    case SIGABRT: name = "signal:SIGABRT"; break;
    case SIGFPE:  name = "signal:SIGFPE";  break;
    case SIGBUS:  name = "signal:SIGBUS";  break;
    case SIGILL:  name = "signal:SIGILL";  break;
    default: break;
  }
  FlightRecorder::global().dump_to_file(name);
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (core dump, exit code).
  std::raise(signo);
}

}  // namespace

void FlightRecorder::install_signal_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &blackbox_signal_handler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int signo : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL}) {
      sigaction(signo, &sa, nullptr);
    }
  });
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace citl::obs
