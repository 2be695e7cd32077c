// Real-time deadline profiler (§IV-B): per-revolution accounting of CGRA
// schedule cycles against the reference-period budget.
//
// The hardware's correctness claim is that the schedule finishes inside
// every reference period. The framework used to keep only a boolean miss
// counter; this profiler turns each revolution into a sample of
//
//   occupancy = exec_cycles / budget_cycles        (>= 1 means a miss)
//   headroom  = 1 - occupancy                      (fraction of budget left)
//
// and aggregates them into a fixed-bucket occupancy histogram (bounded
// memory for arbitrarily long runs), exact min/max/mean headroom, and the K
// worst misses with their revolution index and simulation time.
//
// Everything recorded here derives from SIMULATED quantities (schedule
// length, measured reference period) — no wall clock — so the summary
// statistics are deterministic and safe to include in sweep reports.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace citl::obs {

/// One missed deadline: the schedule needed more cycles than the period
/// offered.
struct DeadlineMiss {
  std::int64_t revolution = 0;  ///< 0-based revolution index
  double time_s = 0.0;          ///< simulation time of the revolution
  double exec_cycles = 0.0;
  double budget_cycles = 0.0;
  [[nodiscard]] double overrun_cycles() const noexcept {
    return exec_cycles - budget_cycles;
  }
};

/// Aggregate view of a profiling run. Percentiles are interpolated from the
/// occupancy histogram: headroom_p50 is the median headroom, headroom_p90 /
/// headroom_p99 are the headroom EXCEEDED by 90% / 99% of revolutions (the
/// tail that matters for a real-time guarantee). All zero when empty.
struct DeadlineStats {
  std::int64_t revolutions = 0;
  std::int64_t misses = 0;
  double headroom_min = 0.0;
  double headroom_max = 0.0;
  double headroom_mean = 0.0;
  double headroom_p50 = 0.0;
  double headroom_p90 = 0.0;
  double headroom_p99 = 0.0;
  double worst_overrun_cycles = 0.0;  ///< max(exec - budget), 0 if no miss
};

class DeadlineProfiler {
 public:
  /// Occupancy histogram: kBuckets equal-width buckets over [0, kMax), plus
  /// one overflow bucket for occupancy >= kMax.
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kMaxOccupancy = 2.0;
  /// Worst misses retained (largest overrun first; ties keep the earlier
  /// revolution).
  static constexpr std::size_t kWorstRecords = 8;

  /// Records one revolution and returns whether it missed its deadline.
  /// `budget_cycles <= 0` and a non-finite budget or execution count are
  /// misses with overflow occupancy.
  bool record(double exec_cycles, double budget_cycles, double time_s);

  [[nodiscard]] std::int64_t revolutions() const noexcept {
    return revolutions_;
  }
  [[nodiscard]] std::int64_t misses() const noexcept { return misses_; }
  /// Worst misses, largest overrun first (at most kWorstRecords).
  [[nodiscard]] const std::vector<DeadlineMiss>& worst_misses() const noexcept {
    return worst_;
  }
  /// Occupancy-bucket count; i == kBuckets is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i];
  }
  /// Upper occupancy bound of bucket i (kMaxOccupancy for the last regular
  /// bucket).
  [[nodiscard]] static constexpr double bucket_upper_bound(
      std::size_t i) noexcept {
    return kMaxOccupancy * static_cast<double>(i + 1) /
           static_cast<double>(kBuckets);
  }

  [[nodiscard]] DeadlineStats stats() const;

  /// Interpolated occupancy quantile from the histogram, clamped to the
  /// exactly-tracked observed range. 0.0 when no revolutions were recorded.
  [[nodiscard]] double occupancy_quantile(double q) const;

  void reset();

  /// Full accumulator state, for checkpoint serialization. set_state() on a
  /// fresh profiler reproduces the exact stats()/bucket_count() outputs.
  struct State {
    std::int64_t revolutions = 0;
    std::int64_t misses = 0;
    double headroom_min = 0.0;
    double headroom_max = 0.0;
    double headroom_sum = 0.0;
    double worst_overrun = 0.0;
    std::array<std::uint64_t, kBuckets + 1> buckets{};
    std::vector<DeadlineMiss> worst;
  };
  [[nodiscard]] State state() const {
    return State{revolutions_,   misses_,  headroom_min_, headroom_max_,
                 headroom_sum_,  worst_overrun_, buckets_, worst_};
  }
  void set_state(const State& st) {
    revolutions_ = st.revolutions;
    misses_ = st.misses;
    headroom_min_ = st.headroom_min;
    headroom_max_ = st.headroom_max;
    headroom_sum_ = st.headroom_sum;
    worst_overrun_ = st.worst_overrun;
    buckets_ = st.buckets;
    worst_ = st.worst;
  }

 private:
  std::int64_t revolutions_ = 0;
  std::int64_t misses_ = 0;
  double headroom_min_ = 0.0;
  double headroom_max_ = 0.0;
  double headroom_sum_ = 0.0;
  double worst_overrun_ = 0.0;
  std::array<std::uint64_t, kBuckets + 1> buckets_{};
  std::vector<DeadlineMiss> worst_;
};

}  // namespace citl::obs
