// Batched scenario-sweep engine.
//
// The paper validates ONE operating point (14N7+, f_ref = 800 kHz, h = 4)
// against one machine development experiment. A simulator earns its keep by
// sweeping *many* operating points — controller gains, jump amplitudes,
// species, harmonics — and that only counts if every result is reproducible.
// This engine runs many independent hil::Framework or hil::TurnLoop
// instances (optionally with ensemble ground truth) as lanes of lockstep
// chunks, one BatchedCgraMachine per chunk and one chunk per ThreadPool
// task, with three guarantees:
//
//   * distinct CGRA kernels are compiled exactly once per sweep and shared
//     immutably across scenarios (sweep::KernelCache),
//   * every scenario derives its RNG streams from (sweep seed, scenario
//     index) only, and writes into its own pre-sized result slot, so the
//     sweep output is bit-identical for any thread count, lane count or
//     schedule,
//   * per-scenario wall time is measured but kept out of the deterministic
//     metric set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgra/attribution.hpp"
#include "core/parallel.hpp"
#include "hil/framework.hpp"
#include "hil/turnloop.hpp"
#include "oracle/oracle.hpp"
#include "sweep/kernel_cache.hpp"
#include "sweep/metrics.hpp"

namespace citl::sweep {

/// Which simulation engine executes a scenario.
enum class ScenarioEngine : std::uint8_t {
  kSampleAccurate,  ///< hil::Framework — every 250 MHz converter tick
  kTurnLevel,       ///< hil::TurnLoop — one step per revolution
};

/// One independent simulation to run: an engine configuration plus how long
/// to run it and how to window the metrics.
struct Scenario {
  std::string name;
  ScenarioEngine engine = ScenarioEngine::kSampleAccurate;
  /// Engine configuration; `framework` is read for kSampleAccurate,
  /// `turnloop` for kTurnLevel.
  hil::FrameworkConfig framework;
  hil::TurnLoopConfig turnloop;
  double duration_s = 20.0e-3;         ///< simulated experiment length
  double f_sync_nominal_hz = 1280.0;   ///< analytic f_s; sets metric windows
  /// Also run a serial many-particle EnsembleTracker under the same stimulus
  /// and controller settings as ground truth (costs ~n_particles per turn).
  bool ensemble_reference = false;
  std::size_t ensemble_particles = 2000;
  double ensemble_sigma_dt_s = 25.0e-9;
  /// Opt-in differential oracle (turn-level scenarios only): the scenario is
  /// re-run through the spec's reference/candidate fidelity pair and the
  /// metrics gain max_ulp_err / first_divergent_turn columns. Enabling it on
  /// a sample-accurate scenario is a ConfigError — the oracle's fidelities
  /// are all turn-granular.
  oracle::OracleSpec oracle;

  /// The loop `engine` selects — `turnloop` or `framework` — as the fields
  /// both fidelities share.
  [[nodiscard]] hil::LoopConfig& loop() noexcept {
    if (engine == ScenarioEngine::kTurnLevel) return turnloop;
    return framework;
  }
  [[nodiscard]] const hil::LoopConfig& loop() const noexcept {
    if (engine == ScenarioEngine::kTurnLevel) return turnloop;
    return framework;
  }
};

struct ScenarioResult {
  std::string name;
  std::size_t index = 0;
  std::uint64_t seed = 0;              ///< derived per-scenario seed
  ScenarioMetrics metrics;
  /// Copy of the recorded phase trace (decimated at the framework's trace
  /// rate); empty when SweepConfig::collect_traces is false.
  std::vector<double> trace_time_s;
  std::vector<double> trace_phase_rad;
  // Ground-truth metrics (zero when the scenario ran without an ensemble).
  double f_sync_reference_hz = 0.0;
  double reference_first_swing_rad = 0.0;
};

struct SweepConfig {
  std::vector<Scenario> scenarios;
  /// Worker threads for the private pool when run_sweep creates one
  /// (0 = hardware_concurrency). Ignored when a pool is passed in.
  unsigned threads = 0;
  std::uint64_t seed = 2024;           ///< master seed of the sweep
  bool collect_traces = true;
  /// Kernel cache to use; nullptr = a cache private to this run_sweep call.
  KernelCache* cache = nullptr;
  /// Lane width of the lockstep chunks. Scenarios sharing one compiled
  /// kernel, engine and execution tier are grouped into chunks of up to
  /// `batch_lanes` lanes (0 or 1: one lane each), each chunk executed by
  /// one BatchedCgraMachine; chunks are the unit of thread-pool work.
  /// Reports are byte-identical at any lane/thread count (a tested
  /// invariant). Every lane runs the functional kernel iteration, also for
  /// a scenario with `cycle_accurate` set (the two are bit-identical).
  std::size_t batch_lanes = 0;
};

/// Cycle attribution for one distinct kernel of a sweep: the kernel's
/// static per-iteration profile scaled by the summed cgra_runs of the
/// scenarios that executed it. Derived from schedules and the deterministic
/// metric set only — present (and byte-identical) whether or not any
/// observability instrument is enabled.
struct KernelAttribution {
  cgra::KernelCycleProfile profile;
  std::uint64_t iterations = 0;            ///< summed member cgra_runs
  std::vector<std::size_t> scenario_indices;  ///< members, ascending
};

struct SweepResult {
  std::vector<ScenarioResult> scenarios;  ///< index-aligned with the config
  std::size_t kernel_compilations = 0;    ///< compiles performed by this sweep
  std::size_t distinct_kernels = 0;       ///< distinct keys among scenarios
  std::size_t batch_chunks = 0;           ///< lockstep chunks executed
  /// Per-distinct-kernel hotspot data, ordered by kernel cache key.
  std::vector<KernelAttribution> attribution;
  double wall_time_s = 0.0;
  unsigned threads_used = 0;
};

/// Per-scenario seed derivation (splitmix64 over master seed and index):
/// stable across versions so recorded sweeps stay replayable.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t master,
                                          std::size_t index) noexcept;

/// Runs every scenario and extracts its metrics. Supplying `pool` reuses an
/// existing ThreadPool (the pool's thread count then decides concurrency);
/// otherwise a private pool with `config.threads` workers is created.
/// Every distinct kernel is compiled before any chunk runs, so a compile
/// failure (e.g. an unschedulable kernel) throws before any scenario runs.
/// A failure inside a chunk still propagates after the other chunks finish.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config,
                                    ThreadPool* pool = nullptr);

}  // namespace citl::sweep
