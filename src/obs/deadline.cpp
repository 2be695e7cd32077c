#include "obs/deadline.hpp"

#include <algorithm>
#include <cmath>

namespace citl::obs {

bool DeadlineProfiler::record(double exec_cycles, double budget_cycles,
                              double time_s) {
  // A non-finite budget or execution count (a poisoned period measurement,
  // e.g. a reference dropout without a supervising watchdog) is a miss with
  // pinned occupancy: the histogram and extrema must stay NaN-free so the
  // stats remain deterministic and comparable.
  const bool valid_budget =
      budget_cycles > 0.0 && std::isfinite(budget_cycles) &&
      std::isfinite(exec_cycles);
  const double occupancy =
      valid_budget ? exec_cycles / budget_cycles : kMaxOccupancy;
  const double headroom = 1.0 - occupancy;

  if (revolutions_ == 0) {
    headroom_min_ = headroom_max_ = headroom;
  } else {
    headroom_min_ = std::min(headroom_min_, headroom);
    headroom_max_ = std::max(headroom_max_, headroom);
  }
  headroom_sum_ += headroom;
  ++revolutions_;

  std::size_t idx = kBuckets;  // overflow
  if (occupancy < kMaxOccupancy) {
    idx = static_cast<std::size_t>(
        occupancy / kMaxOccupancy * static_cast<double>(kBuckets));
    if (idx >= kBuckets) idx = kBuckets - 1;  // guard fp edge at the top
  }
  if (occupancy < 0.0) idx = 0;
  ++buckets_[idx];

  const bool missed = !valid_budget || exec_cycles > budget_cycles;
  if (missed) {
    ++misses_;
    const DeadlineMiss miss{revolutions_ - 1, time_s, exec_cycles,
                            budget_cycles};
    worst_overrun_ = std::max(worst_overrun_, miss.overrun_cycles());
    // Keep the worst kWorstRecords, largest overrun first; strict '>' on
    // insertion keeps the earliest revolution ahead on ties.
    auto it = std::upper_bound(
        worst_.begin(), worst_.end(), miss,
        [](const DeadlineMiss& a, const DeadlineMiss& b) {
          return a.overrun_cycles() > b.overrun_cycles();
        });
    if (it != worst_.end() || worst_.size() < kWorstRecords) {
      worst_.insert(it, miss);
      if (worst_.size() > kWorstRecords) worst_.pop_back();
    }
  }
  return missed;
}

double DeadlineProfiler::occupancy_quantile(double q) const {
  // Interpolated quantile over the occupancy histogram. Samples in a bucket
  // are assumed uniform over the bucket's width; the overflow bucket is
  // collapsed onto its lower edge (kMaxOccupancy). The result is clamped to
  // the exactly-tracked observed range so bucket quantisation can never
  // report a quantile outside [min, max] occupancy.
  if (revolutions_ == 0) return 0.0;  // no samples: a quantile of nothing
  const double occ_min = 1.0 - headroom_max_;
  const double occ_max = 1.0 - headroom_min_;
  const auto total = static_cast<double>(revolutions_);
  const double rank = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(buckets_[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0.0) {
      if (i == kBuckets) return std::clamp(kMaxOccupancy, occ_min, occ_max);
      const double lower = kMaxOccupancy * static_cast<double>(i) /
                           static_cast<double>(kBuckets);
      const double width = kMaxOccupancy / static_cast<double>(kBuckets);
      const double frac = (rank - cumulative) / in_bucket;
      return std::clamp(lower + frac * width, occ_min, occ_max);
    }
    cumulative += in_bucket;
  }
  return occ_max;
}

DeadlineStats DeadlineProfiler::stats() const {
  DeadlineStats s;
  s.revolutions = revolutions_;
  s.misses = misses_;
  if (revolutions_ == 0) return s;
  s.headroom_min = headroom_min_;
  s.headroom_max = headroom_max_;
  s.headroom_mean = headroom_sum_ / static_cast<double>(revolutions_);
  s.headroom_p50 = 1.0 - occupancy_quantile(0.50);
  // "Headroom exceeded by 90% / 99% of revolutions" = high occupancy tail.
  s.headroom_p90 = 1.0 - occupancy_quantile(0.90);
  s.headroom_p99 = 1.0 - occupancy_quantile(0.99);
  s.worst_overrun_cycles = worst_overrun_;
  return s;
}

void DeadlineProfiler::reset() {
  revolutions_ = 0;
  misses_ = 0;
  headroom_min_ = headroom_max_ = headroom_sum_ = 0.0;
  worst_overrun_ = 0.0;
  buckets_.fill(0);
  worst_.clear();
}

}  // namespace citl::obs
