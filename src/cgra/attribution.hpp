// Per-op cycle attribution: which operators burn the schedule cycles of a
// compiled kernel.
//
// The schedule makespan is the initiation interval of the whole control loop
// (§IV-B), so shaving cycles off the right op kind is how the loop gets
// faster — but until now the only visibility was the aggregate
// ScheduleStats. This module breaks a CompiledKernel's schedule down per
// OpKind / functional unit:
//
//   * the per-ITERATION profile is static — it reads only the schedule, so
//     it is exactly deterministic and free of run-state,
//   * run totals are profile × iteration count (the engine's per-lane
//     iteration counts, BatchedCgraMachine::lane_iterations()),
//   * the engine also mirrors the totals into registry counters
//     "cgra.op_cycles[op=<kind>,fu=<class>]" (resolved once at machine
//     construction; relaxed no-ops while the registry is disabled), which
//     the Prometheus exposition renders as one labelled series per op kind.
//
// Consumers: the operator console's `hotspots` command, the sweep report's
// per-kernel attribution section, and ROADMAP items 1/5 (codegen and
// scheduler search need to know what to optimise).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgra/schedule.hpp"
#include "obs/metrics.hpp"

namespace citl::cgra {

/// Cycle share of one op kind within a kernel's schedule.
struct AttributionRow {
  OpKind kind = OpKind::kConst;
  OpClass unit = OpClass::kAlu;  ///< functional unit (op_class(kind))
  std::uint64_t ops = 0;         ///< node count (route hops for kMove)
  std::uint64_t cycles_per_iteration = 0;  ///< busy cycles per schedule pass
};

/// Static per-iteration cycle profile of a compiled kernel. Rows are sorted
/// by cycles_per_iteration descending (ties: op name ascending) — the
/// hotspot order.
struct KernelCycleProfile {
  std::string kernel_name;
  unsigned schedule_length = 0;    ///< makespan [CGRA ticks / iteration]
  int pe_count = 0;
  std::uint64_t busy_cycles = 0;   ///< sum of all rows' cycles
  double pe_utilisation = 0.0;     ///< busy / (pe_count * length)
  std::vector<AttributionRow> rows;
};

/// Computes the profile from the schedule alone (deterministic; no machine
/// state). Route hops inserted by the scheduler appear as an OpKind::kMove
/// row with one cycle per hop.
[[nodiscard]] KernelCycleProfile kernel_cycle_profile(
    const CompiledKernel& kernel);

/// Registry metric name for one attribution row:
/// "cgra.op_cycles[op=<op_name>,fu=<class_name>]".
[[nodiscard]] std::string attribution_metric_name(const AttributionRow& row);

/// Pre-resolved global-registry counter handles for a kernel's attribution
/// rows. Machines construct one of these once (name lookups take the
/// registry mutex) and call add_iterations() per committed iteration — a
/// handful of relaxed-atomic adds, each a no-op while the registry is
/// disabled. Never touches machine state, so it cannot perturb results.
class AttributionCounters {
 public:
  AttributionCounters() = default;
  explicit AttributionCounters(const CompiledKernel& kernel);

  /// Credits every op kind with `n` iterations' worth of cycles.
  void add_iterations(std::uint64_t n) noexcept;

 private:
  struct Entry {
    obs::Counter* cycles = nullptr;
    std::uint64_t cycles_per_iteration = 0;
  };
  std::vector<Entry> entries_;
};

/// Renders the profile as an aligned hotspot table, cycles scaled by
/// `iterations` (pass 1 for the per-iteration view). Columns: op, unit,
/// ops, cyc/iter, share of busy cycles, total cycles.
[[nodiscard]] std::string hotspot_table(const KernelCycleProfile& profile,
                                        std::uint64_t iterations);

}  // namespace citl::cgra

namespace citl::io {
class JsonWriter;
}  // namespace citl::io

namespace citl::cgra {

/// Appends the profile (scaled by `iterations`) to a JSON writer as
///   {"kernel":...,"schedule_length":...,"busy_cycles_per_iteration":...,
///    "pe_utilisation":...,"iterations":...,"ops":[{...},...]}
/// Used by the sweep report's attribution section.
void append_attribution_json(io::JsonWriter& w,
                             const KernelCycleProfile& profile,
                             std::uint64_t iterations);

}  // namespace citl::cgra
