// The machine development experiment (MDE) scenario of §V, reproduced twice:
//
//   * "simulator"  — the single-macro-particle CGRA HIL loop (what the paper
//                    built; Fig. 5a),
//   * "reference"  — a many-macro-particle ensemble under the same stimulus
//                    and the same controller, standing in for the real SIS18
//                    beam of Fig. 5b (this is the substitution documented in
//                    DESIGN.md; the ensemble exhibits the Landau damping /
//                    filamentation physics the paper discusses).
//
// Both loops see the identical phase-jump programme and controller settings
// (f_pass = 1.4 kHz, gain = −5, recursion factor = 0.99), the working point
// is ¹⁴N⁷⁺ at f_ref = 800 kHz, h = 4, and the gap amplitude is chosen so the
// small-amplitude synchrotron frequency is 1.28 kHz — all §V values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/jump.hpp"
#include "hil/loop_config.hpp"
#include "hil/turnloop.hpp"
#include "phys/ensemble.hpp"

namespace citl::hil {

struct MdeScenarioConfig {
  phys::Ion ion = phys::ion_n14_7plus();
  phys::Ring ring = phys::sis18(4);
  double f_ref_hz = 800.0e3;
  double f_sync_hz = 1280.0;        ///< target small-amplitude f_s (§V)
  double jump_deg = 8.0;            ///< gap phase jump amplitude (§V)
  double jump_interval_s = 0.05;    ///< 1/20 s (§V)
  double duration_s = 0.12;         ///< simulated experiment length
  bool control_enabled = true;
  /// Which kernel variant the HIL loop runs. The pipelined kernel (the
  /// paper's production configuration) reads the gap voltage one revolution
  /// stale, which anti-damps the free oscillation at a rate of about
  /// ω_s²·T_rev/2 ≈ 40 /s — invisible under closed-loop control but dominant
  /// in long open-loop runs; pick the plain kernel for those.
  bool pipelined_kernel = true;
  ctrl::ControllerConfig controller;
  std::size_t ensemble_particles = 20'000;
  double ensemble_sigma_dt_s = 25.0e-9;  ///< matched bunch length (rms)
  std::uint64_t seed = 2024;
  std::size_t record_every_turns = 8;    ///< trace decimation
};

/// One recorded phase series.
struct PhaseSeries {
  std::vector<double> time_s;
  std::vector<double> phase_deg;
};

struct MdeResult {
  PhaseSeries simulator;   ///< CGRA HIL loop (Fig. 5a analogue)
  PhaseSeries reference;   ///< ensemble ground truth (Fig. 5b analogue)
  double gap_amplitude_v = 0.0;     ///< derived from the f_s target
  double f_sync_analytic_hz = 0.0;
  double f_sync_simulator_hz = 0.0; ///< measured on the simulator series
  double f_sync_reference_hz = 0.0; ///< measured on the reference series
  double first_p2p_over_jump_sim = 0.0;  ///< §V expects ≈ 2
  double first_p2p_over_jump_ref = 0.0;
  double damping_ratio_sim = 0.0;  ///< residual/initial amplitude per jump
  double damping_ratio_ref = 0.0;
};

/// Runs the scenario (both loops) and computes the §V metrics.
[[nodiscard]] MdeResult run_mde_scenario(const MdeScenarioConfig& config);

/// Runs only the CGRA HIL loop (cheaper; used by tests/benches that do not
/// need the ensemble reference).
[[nodiscard]] PhaseSeries run_mde_simulator(const MdeScenarioConfig& config);

/// Runs only the ensemble reference loop (run_ensemble_reference on the
/// scenario's loop, phases converted to degrees).
[[nodiscard]] PhaseSeries run_mde_reference(const MdeScenarioConfig& config);

/// A recorded ensemble phase series, in the loop's native radians.
struct EnsembleSeries {
  std::vector<double> time_s;
  std::vector<double> phase_rad;
};

/// The ground-truth loop: `loop`'s jump programme and controller closed
/// around a serial many-particle ensemble (`particles` macro-particles, a
/// matched Gaussian bunch of rms length `sigma_dt_s`, RNG `seed`) instead of
/// the CGRA kernel's single macro-particle. Runs `turns` revolutions and
/// records the centroid phase relative to the reference every
/// `record_every` turns. Only the fields both fidelities share are read, so
/// either engine's config yields the same series.
[[nodiscard]] EnsembleSeries run_ensemble_reference(
    const LoopConfig& loop, std::size_t particles, double sigma_dt_s,
    std::uint64_t seed, std::int64_t turns, std::int64_t record_every);

// ---- series analysis ------------------------------------------------------

/// Estimates the dominant oscillation frequency of (t, x) in a window via
/// mean-crossing counting after removing the running mean. Returns 0 when
/// fewer than two crossings are found.
[[nodiscard]] double estimate_oscillation_frequency_hz(
    std::span<const double> time_s, std::span<const double> x, double t_begin,
    double t_end);

/// Peak-to-peak of x within [t_begin, t_end).
[[nodiscard]] double peak_to_peak(std::span<const double> time_s,
                                  std::span<const double> x, double t_begin,
                                  double t_end);

/// Mean of x within [t_begin, t_end).
[[nodiscard]] double mean_in_window(std::span<const double> time_s,
                                    std::span<const double> x, double t_begin,
                                    double t_end);

}  // namespace citl::hil
