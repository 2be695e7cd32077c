// Cross-fidelity differential oracle with automatic divergence bisection.
//
// Runs one turn-loop scenario through a *pair* of fidelities (the kernel
// source evaluated in binary64, serial CGRA machine in f32/f64, lane 0 of a
// batched machine) in lockstep and compares the per-turn observables — gamma_r,
// dgamma, dt and the measured bunch phase — under per-quantity ULP/absolute
// tolerance budgets (tolerance.hpp). On the first out-of-budget turn it
//   1. bisects the first divergent turn with checkpoint/rollback probes
//      (hil::TurnLoop::checkpoint(), which carries the model lane's states
//      AND pipeline registers, so a restored loop replays bit-exactly),
//   2. shrinks the scenario — truncate turns, drop fault-plan entries, drop
//      the jump programme, open the control loop, zero the noise — keeping
//      each simplification only if the divergence survives,
//   3. emits a self-contained repro artifact: a JSON description plus a CSV
//      trace window (expected/actual/ULP per quantity) that
//      load_repro_trace() reloads through the io::parse_csv machinery.
//
// The oracle is deliberately sweep-agnostic; sweep::Scenario carries an
// OracleSpec and the sweep engine calls run_oracle() per scenario (identical
// in the serial and chunked paths, preserving their byte-identity).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cgra/schedule.hpp"
#include "hil/turnloop.hpp"
#include "oracle/tolerance.hpp"

namespace citl::oracle {

/// The four observables compared each turn, in fixed order.
inline constexpr std::size_t kQuantityCount = 4;
[[nodiscard]] const char* quantity_name(std::size_t q) noexcept;

struct OracleConfig {
  Fidelity reference = Fidelity::kHostF64;
  Fidelity candidate = Fidelity::kSerialF32;
  /// Unset: ToleranceBudget::for_pair(reference, candidate).
  std::optional<ToleranceBudget> budget;
  std::int64_t turns = 2000;
  /// Checkpoint + compare every `stride` turns, bisect on failure. Forced
  /// to 1 (compare every turn, no rollback) when the scenario carries
  /// faults or a supervisor — their state is outside the checkpoint image.
  std::int64_t checkpoint_stride = 64;
  /// Lane count of a batched fidelity; sibling lanes run the identical
  /// scenario and lane 0 is compared.
  std::size_t batch_lanes = 4;
  bool shrink = true;
  /// Directory for repro artifacts; empty = don't write files.
  std::string artifact_dir;
  /// Artifact file stem ("<stem>.json" / "<stem>_trace.csv").
  std::string artifact_stem = "oracle_repro";
  /// Kernel override for the candidate side (perturb_kernel_constant());
  /// null = both sides execute the scenario's own kernel.
  std::shared_ptr<const cgra::CompiledKernel> candidate_kernel;
};

/// One quantity's value pair at the divergent turn.
struct QuantityDivergence {
  std::string name;
  double expected = 0.0;  ///< reference fidelity
  double actual = 0.0;    ///< candidate fidelity
  std::uint64_t ulp = 0;
  double abs_diff = 0.0;
};

/// One row of the repro trace (and of load_repro_trace()).
struct TraceRow {
  std::int64_t turn = 0;
  std::array<double, kQuantityCount> expected{};
  std::array<double, kQuantityCount> actual{};
  std::array<double, kQuantityCount> ulp{};  ///< saturated to 2^53
};

struct OracleReport {
  bool diverged = false;
  /// First turn whose observables left the budget (exact: confirmed by a
  /// turn-by-turn scan from the last clean checkpoint); -1 = agreement.
  std::int64_t first_divergent_turn = -1;
  /// The bisection probes' answer — equals first_divergent_turn whenever
  /// divergence is monotone (always observed; the scan is the guard).
  std::int64_t bisected_turn = -1;
  std::int64_t turns_run = 0;
  /// Max ULP distance observed across all compared turns/quantities,
  /// saturated into a double (exact up to 2^53).
  double max_ulp_err = 0.0;
  UlpHistogram histogram;
  std::vector<QuantityDivergence> divergences;  ///< at the divergent turn
  std::vector<TraceRow> trace;                  ///< window around divergence
  /// Shrink decisions ("drop jumps: kept (still diverges at turn 812)").
  std::vector<std::string> shrink_log;
  /// Minimal reproducer (only meaningful when diverged && shrink ran).
  hil::TurnLoopConfig minimal_config;
  std::int64_t minimal_turns = 0;
  std::string artifact_json;  ///< path, when artifacts were written
  std::string artifact_csv;
};

/// Runs the differential oracle on one scenario. The loop config is the
/// *base* (pre-effective) TurnLoopConfig, exactly what TurnLoop's ctor
/// takes. Throws ConfigError for fidelity pairs the scenario cannot carry
/// (e.g. a ramp kernel, or reference == candidate with no kernel override).
[[nodiscard]] OracleReport run_oracle(const hil::TurnLoopConfig& loop_config,
                                      const OracleConfig& oracle_config);

/// Returns a copy of `kernel` with the first kConst node whose constant
/// equals `target_value` nudged by one ULP upward — in the *working
/// precision's* lattice: for an f32 machine the nudge is one binary32 ULP
/// (a one-ulp64 nudge would vanish in the machine's constant quantisation).
/// Node ids, schedule and architecture are preserved (Dfg::restore), so the
/// result is the same compiled artifact with a single poisoned literal —
/// the oracle's acceptance self-test. Throws ConfigError when no constant
/// matches.
[[nodiscard]] cgra::CompiledKernel perturb_kernel_constant(
    const cgra::CompiledKernel& kernel, double target_value,
    cgra::Precision precision);

/// Reloads a repro-artifact CSV trace (written by run_oracle) via
/// io::parse_csv + io::csv_parse_number. Throws ConfigError on malformed
/// headers or non-numeric cells.
[[nodiscard]] std::vector<TraceRow> load_repro_trace(const std::string& path);

/// Sweep opt-in: when enabled, the sweep engine runs this oracle per
/// scenario and reports max_ulp_err / first_divergent_turn columns.
struct OracleSpec {
  bool enabled = false;
  Fidelity reference = Fidelity::kHostF64;
  Fidelity candidate = Fidelity::kSerialF32;
  std::optional<ToleranceBudget> budget;
  std::int64_t checkpoint_stride = 64;
};

}  // namespace citl::oracle
