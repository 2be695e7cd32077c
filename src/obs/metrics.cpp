#include "obs/metrics.hpp"

#include "core/error.hpp"
#include "io/json.hpp"

namespace citl::obs {

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(
                          new Counter(std::string(name), &enabled_)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(
                          new Gauge(std::string(name), &enabled_)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CITL_CHECK_MSG(!bounds.empty(), "histogram needs at least one bound");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      CITL_CHECK_MSG(bounds[i - 1] < bounds[i],
                     "histogram bounds must be strictly increasing");
    }
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(
                          std::string(name), std::move(bounds), &enabled_)))
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    for (std::size_t i = 0; i <= h->bounds_.size(); ++i) {
      h->counts_[i].store(0, std::memory_order_relaxed);
    }
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.bounds = h->bounds();
    row.counts.reserve(row.bounds.size() + 1);
    for (std::size_t i = 0; i <= row.bounds.size(); ++i) {
      row.counts.push_back(h->bucket_count(i));
    }
    row.count = h->count();
    row.sum = h->sum();
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

std::string Registry::json() const {
  std::lock_guard lock(mutex_);
  io::JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(static_cast<std::uint64_t>(c->value()));
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).value(g->value());
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      w.begin_object();
      if (i < h->bounds().size()) {
        w.key("le").value(h->bounds()[i]);
      } else {
        w.key("le").value("inf");
      }
      w.key("count").value(static_cast<std::uint64_t>(h->bucket_count(i)));
      w.end_object();
    }
    w.end_array();
    w.key("count").value(static_cast<std::uint64_t>(h->count()));
    w.key("sum").value(h->sum());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Registry::csv() const {
  std::lock_guard lock(mutex_);
  std::string out = "metric,kind,value\n";
  auto row = [&out](const std::string& name, const char* kind,
                    const std::string& value) {
    out += name;
    out += ',';
    out += kind;
    out += ',';
    out += value;
    out += '\n';
  };
  for (const auto& [name, c] : counters_) {
    row(name, "counter", std::to_string(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    row(name, "gauge", io::json_number(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      const std::string label =
          i < h->bounds().size()
              ? name + ".le_" + io::json_number(h->bounds()[i])
              : name + ".le_inf";
      row(label, "histogram_bucket", std::to_string(h->bucket_count(i)));
    }
    row(name + ".count", "histogram", std::to_string(h->count()));
    row(name + ".sum", "histogram", io::json_number(h->sum()));
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry(/*enabled=*/false);
  return registry;
}

}  // namespace citl::obs
