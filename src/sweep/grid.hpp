// Fluent builder for cartesian scenario grids.
//
// Sweeps explore a grid of operating points around the paper's experiment —
// controller gains × jump amplitudes × harmonics × species. Hand-rolling the
// nested loops (and keeping the generated names consistent) was repeated in
// every example and test; the builder owns the cartesian product, the
// name scheme ("jump8deg_gain5", extended with "_h4" / "_238U28+" when those
// axes are swept) and the per-scenario plumbing, for either engine.
//
//   sweep::SweepConfig config;
//   config.scenarios = sweep::ScenarioGridBuilder::sample_accurate(base)
//                          .jump_amplitudes_deg({4, 8, 12})
//                          .gains({-3, -5, -7})
//                          .duration_s(8e-3)
//                          .build();
//
// Axes left unset keep the base configuration's value and add nothing to
// the scenario names. Scenario order is deterministic: jump amplitudes
// outermost, then gains, harmonics, species, fault plans (innermost — a
// fault campaign runs every plan against every operating point).
#pragma once

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "phys/ion.hpp"
#include "sweep/sweep.hpp"

namespace citl::sweep {

class ScenarioGridBuilder {
 public:
  /// Grid of sample-accurate (hil::Framework) scenarios over `base`.
  [[nodiscard]] static ScenarioGridBuilder sample_accurate(
      hil::FrameworkConfig base);
  /// Grid of turn-level (hil::TurnLoop) scenarios over `base`.
  [[nodiscard]] static ScenarioGridBuilder turn_level(hil::TurnLoopConfig base);

  /// Controller gains to sweep (ctrl::ControllerConfig::gain).
  ScenarioGridBuilder& gains(std::vector<double> values);
  /// Phase-jump amplitudes [deg]; each scenario gets a PhaseJumpProgramme
  /// with this amplitude and the builder's interval/start (jump_timing()).
  ScenarioGridBuilder& jump_amplitudes_deg(std::vector<double> values);
  /// Interval and start time of the jump programme (defaults 1 s / 1 ms —
  /// one jump early in the run, like the §V machine experiment).
  ScenarioGridBuilder& jump_timing(double interval_s, double start_s);
  /// Harmonic numbers to sweep (ring.harmonic).
  ScenarioGridBuilder& harmonics(std::vector<int> values);
  /// Ion species to sweep (kernel.ion).
  ScenarioGridBuilder& species(std::vector<phys::Ion> values);
  /// Fault campaigns to sweep: every scenario point is run once per plan
  /// (innermost axis; plan names suffix the scenario names). An entry with
  /// an empty plan is the healthy control arm.
  ScenarioGridBuilder& fault_plans(std::vector<fault::FaultPlan> values);
  /// Supervisor configuration applied to every scenario (typically enabled
  /// together with fault_plans()).
  ScenarioGridBuilder& supervisor(hil::SupervisorConfig config);
  /// Differential-oracle spec applied to every scenario (turn-level grids
  /// only; run_sweep rejects the combination with a sample-accurate engine).
  /// Adds the max_ulp_err / first_divergent_turn metric columns.
  ScenarioGridBuilder& oracle(oracle::OracleSpec spec);

  ScenarioGridBuilder& duration_s(double seconds);
  ScenarioGridBuilder& f_sync_nominal_hz(double hz);
  ScenarioGridBuilder& ensemble_reference(bool on);
  /// Prefix prepended to every generated scenario name.
  ScenarioGridBuilder& name_prefix(std::string prefix);

  /// Number of scenarios build() will produce.
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::vector<Scenario> build() const;

 private:
  explicit ScenarioGridBuilder(Scenario base);

  Scenario base_;
  std::vector<double> gains_;
  std::vector<double> jumps_deg_;
  std::vector<int> harmonics_;
  std::vector<phys::Ion> species_;
  std::vector<fault::FaultPlan> fault_plans_;
  double jump_interval_s_ = 1.0;
  double jump_start_s_ = 1.0e-3;
  std::string prefix_;
};

}  // namespace citl::sweep
