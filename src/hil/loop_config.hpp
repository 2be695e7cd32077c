// The closed loop of the paper's §V experiment, independent of fidelity.
//
// The repository runs one loop — operating point, phase-jump programme,
// beam-phase controller and CGRA beam kernel — at two fidelities:
// hil::Framework models every 250 MHz converter tick (Fig. 3), hil::TurnLoop
// steps once per revolution (Fig. 5). LoopConfig holds everything the two
// share; FrameworkConfig and TurnLoopConfig extend it with the fields of
// their own fidelity, so code that handles "a loop" (the API expansion, the
// sweep grid, the ensemble ground truth) takes a LoopConfig& and serves both.
#pragma once

#include <optional>

#include "cgra/arch.hpp"
#include "cgra/exec_tier.hpp"
#include "cgra/kernels.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/jump.hpp"
#include "fault/fault.hpp"
#include "hil/supervisor.hpp"
#include "phys/relativity.hpp"

namespace citl::hil {

struct LoopConfig {
  cgra::BeamKernelConfig kernel;       ///< beam model (ion, ring, gamma0, ...)
  cgra::CgraArch arch = cgra::grid_5x5();
  double f_ref_hz = 800.0e3;           ///< reference (revolution) frequency
  double ref_amplitude_v = 0.8;        ///< reference-signal amplitude at ADC
  double gap_amplitude_v = 0.8;        ///< gap-signal amplitude at ADC
  double gap_voltage_v = 5000.0;       ///< physical gap amplitude [V]
  /// Dual-harmonic cavity system (Grieser et al. 2014): second cavity at
  /// twice the RF frequency with amplitude ratio·V̂. 0 disables it; phase π
  /// is the bunch-lengthening configuration.
  double gap_h2_ratio = 0.0;
  double gap_h2_phase_rad = 3.14159265358979323846;
  bool control_enabled = true;
  ctrl::ControllerConfig controller;
  std::optional<ctrl::PhaseJumpProgramme> jumps;
  bool cycle_accurate = false;         ///< run the CGRA cycle-by-cycle
  /// Kernel execution back end (cgra/exec_tier.hpp). All tiers are
  /// bit-identical; kAuto picks native codegen when a host compiler exists.
  /// The cycle-accurate mode always interprets regardless of this knob.
  cgra::ExecTier exec_tier = cgra::ExecTier::kInterpreter;
  /// Scripted fault campaign (empty = healthy run, byte-identical to a loop
  /// without the injector). Windows count converter ticks in the
  /// sample-accurate loop and turns in the turn-level loop, which rejects
  /// the kinds acting on converter codes or parameter registers.
  fault::FaultPlan faults;
  /// Supervised recovery layer (disabled by default; enabling it with no
  /// fault active leaves outputs byte-identical — a tested invariant).
  SupervisorConfig supervisor;
};

/// The kernel configuration actually compiled: host-side initialisation
/// (§IV-B) bakes gamma0 from the revolution frequency and the orbit length,
/// and the ADC-to-gap voltage scaling, into the kernel constants.
[[nodiscard]] inline cgra::BeamKernelConfig effective_kernel_config(
    const LoopConfig& config) {
  cgra::BeamKernelConfig kc = config.kernel;
  kc.gamma0 = phys::gamma_from_revolution_frequency(
      config.f_ref_hz, kc.ring.circumference_m);
  kc.v_scale = config.gap_voltage_v / config.gap_amplitude_v;
  return kc;
}

}  // namespace citl::hil
