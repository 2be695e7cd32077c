#include "obs/trace.hpp"

#include "io/json.hpp"

namespace citl::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Tracer::Tracer()
    : id_(next_tracer_id()), epoch_(std::chrono::steady_clock::now()) {}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Cache keyed on the tracer id: a thread switching between tracers
  // re-registers (getting a fresh track), which is correct, just not free.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_id != id_ || cached == nullptr) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    cached = buffers_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void Tracer::push(std::string_view name, char phase, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, double value) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);  // uncontended except during json()
  buf.events.push_back(
      TraceEvent{std::string(name), phase, ts_ns, dur_ns, value});
}

void Tracer::instant(std::string_view name) {
  if (!enabled()) return;
  push(name, 'i', now_ns(), 0, 0.0);
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled()) return;
  push(name, 'C', now_ns(), 0, value);
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    buf->events.clear();
  }
}

std::string Tracer::json() const {
  std::lock_guard lock(mutex_);
  io::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& buf : buffers_) {
    std::lock_guard buf_lock(buf->mutex);
    // Thread-name metadata so Perfetto labels the track.
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(buf->tid));
    w.key("args").begin_object();
    w.key("name").value(
        std::string_view("citl-" + std::to_string(buf->tid)));
    w.end_object();
    w.end_object();
    for (const auto& e : buf->events) {
      w.begin_object();
      w.key("name").value(std::string_view(e.name));
      w.key("cat").value("citl");
      w.key("ph").value(std::string_view(&e.phase, 1));
      w.key("pid").value(std::uint64_t{1});
      w.key("tid").value(static_cast<std::uint64_t>(buf->tid));
      // Chrome trace timestamps are microseconds (fractional allowed).
      w.key("ts").value(static_cast<double>(e.ts_ns) / 1.0e3);
      if (e.phase == 'X') {
        w.key("dur").value(static_cast<double>(e.dur_ns) / 1.0e3);
      } else if (e.phase == 'C') {
        w.key("args").begin_object();
        w.key("value").value(e.value);
        w.end_object();
      } else if (e.phase == 'i') {
        w.key("s").value("t");
      }
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.end_object();
  return w.str();
}

void Tracer::write_json(const std::string& path) const {
  io::write_text_file(path, json());
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace citl::obs
