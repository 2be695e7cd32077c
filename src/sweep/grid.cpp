#include "sweep/grid.hpp"

#include <utility>

#include "core/units.hpp"

namespace citl::sweep {

ScenarioGridBuilder::ScenarioGridBuilder(Scenario base)
    : base_(std::move(base)) {}

ScenarioGridBuilder ScenarioGridBuilder::sample_accurate(
    hil::FrameworkConfig base) {
  Scenario s;
  s.engine = ScenarioEngine::kSampleAccurate;
  s.framework = std::move(base);
  return ScenarioGridBuilder(std::move(s));
}

ScenarioGridBuilder ScenarioGridBuilder::turn_level(hil::TurnLoopConfig base) {
  Scenario s;
  s.engine = ScenarioEngine::kTurnLevel;
  s.turnloop = std::move(base);
  return ScenarioGridBuilder(std::move(s));
}

ScenarioGridBuilder& ScenarioGridBuilder::gains(std::vector<double> values) {
  gains_ = std::move(values);
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::jump_amplitudes_deg(
    std::vector<double> values) {
  jumps_deg_ = std::move(values);
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::jump_timing(double interval_s,
                                                      double start_s) {
  jump_interval_s_ = interval_s;
  jump_start_s_ = start_s;
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::harmonics(std::vector<int> values) {
  harmonics_ = std::move(values);
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::fault_plans(
    std::vector<fault::FaultPlan> values) {
  fault_plans_ = std::move(values);
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::supervisor(
    hil::SupervisorConfig config) {
  base_.loop().supervisor = config;
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::oracle(oracle::OracleSpec spec) {
  base_.oracle = spec;
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::duration_s(double seconds) {
  base_.duration_s = seconds;
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::ensemble_reference(bool on) {
  base_.ensemble_reference = on;
  return *this;
}

ScenarioGridBuilder& ScenarioGridBuilder::name_prefix(std::string prefix) {
  prefix_ = std::move(prefix);
  return *this;
}

std::vector<Scenario> ScenarioGridBuilder::build() const {
  // Unset axes contribute one pass-through point and no name part.
  const std::size_t nj = jumps_deg_.empty() ? 1 : jumps_deg_.size();
  const std::size_t ng = gains_.empty() ? 1 : gains_.size();
  const std::size_t nh = harmonics_.empty() ? 1 : harmonics_.size();
  const std::size_t nf = fault_plans_.empty() ? 1 : fault_plans_.size();

  std::vector<Scenario> out;
  out.reserve(nj * ng * nh * nf);
  for (std::size_t j = 0; j < nj; ++j) {
    for (std::size_t g = 0; g < ng; ++g) {
      for (std::size_t h = 0; h < nh; ++h) {
        for (std::size_t f = 0; f < nf; ++f) {
          Scenario s = base_;
          hil::LoopConfig& loop = s.loop();
          std::string name = prefix_;
          if (!jumps_deg_.empty()) {
            loop.jumps = ctrl::PhaseJumpProgramme(
                deg_to_rad(jumps_deg_[j]), jump_interval_s_, jump_start_s_);
            name += "jump" +
                    std::to_string(static_cast<int>(jumps_deg_[j])) + "deg";
          }
          if (!gains_.empty()) {
            loop.controller.gain = gains_[g];
            if (!name.empty() && name.back() != '_') name += '_';
            // The paper's gains are negative; "gain5" means -5 (the sign
            // is part of the loop convention, not worth repeating in
            // names).
            name += "gain" + std::to_string(static_cast<int>(-gains_[g]));
          }
          if (!harmonics_.empty()) {
            loop.kernel.ring.harmonic = harmonics_[h];
            if (!name.empty() && name.back() != '_') name += '_';
            name += 'h';
            name += std::to_string(harmonics_[h]);
          }
          if (!fault_plans_.empty()) {
            loop.faults = fault_plans_[f];
            if (!name.empty() && name.back() != '_') name += '_';
            name += fault_plans_[f].name.empty()
                        ? "plan" + std::to_string(f)
                        : fault_plans_[f].name;
          }
          s.name = name.empty() ? "scenario" + std::to_string(out.size())
                                : std::move(name);
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

}  // namespace citl::sweep
