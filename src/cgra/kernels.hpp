// Generator for the beam-model kernel (§IV-B).
//
// The paper's workflow is: host code knows the machine and ion parameters,
// bakes them into the C kernel as constants (the CGRA reconfigures from C in
// seconds, which is the point of using an overlay), compiles, and loads the
// context memories. We reproduce exactly that: `beam_kernel_source` emits
// the C kernel for a given configuration; `compile_kernel` (schedule.hpp)
// turns it into context memories.
#pragma once

#include <string>

#include "phys/ion.hpp"
#include "phys/machine.hpp"

namespace citl::cgra {

struct BeamKernelConfig {
  phys::Ion ion = phys::ion_n14_7plus();
  phys::Ring ring = phys::sis18();
  double gamma0 = 1.2;         ///< initial reference Lorentz factor
  double v_scale = 1.0;        ///< gap volts per ADC volt (default param)
  int n_bunches = 1;           ///< 1, 4 or 8 in the paper's experiments
  bool pipelined = false;      ///< emit the manual 2-stage loop pipelining
  bool interpolate = true;     ///< two-sample linear interpolation (§IV-B);
                               ///< false is the accuracy ablation
  double sample_rate_hz = 250.0e6;
};

/// Emits the per-revolution tracking kernel:
///   * reads the averaged reference period and derives the reference
///     particle's arrival offset dT from its current energy,
///   * fetches and linearly interpolates V_R from the reference buffer and
///     V_j from the gap buffer for each bunch j (bucket-spaced),
///   * writes each bunch's arrival time to the actuator *before* the
///     pipeline split (all IO in the first stage, §IV-B),
///   * applies eqs. (2), (3), (5), (6).
[[nodiscard]] std::string beam_kernel_source(const BeamKernelConfig& config);

/// Waveform-synthesis variant: instead of sampling the gap voltage from the
/// capture buffers, the kernel synthesises it on-chip with the CORDIC sine
/// operators (§III-C lists CORDIC in the PE palette) from two runtime
/// parameters, `v_hat` (gap amplitude [V]) and `gap_phase` (the jump +
/// control phase [rad], updated by the host every revolution). This trades
/// the SensorAccess round trips for CORDIC latency and frees the gap ADC
/// channel — the design alternative `bench_sched_lengths` ablates.
[[nodiscard]] std::string analytic_beam_kernel_source(
    const BeamKernelConfig& config);

/// Ramp-capable variant — the paper's announced challenge (§VI: "emulate the
/// acceleration phase with variable RF frequencies and amplitudes"). Instead
/// of integrating the reference energy (eq. (2)), which only works at fixed
/// frequency, this kernel re-derives γ_R every revolution from the period
/// detector — generalising the paper's §IV-B initialisation to every turn.
/// The synchronous energy gain never needs integrating: Δγ is defined
/// relative to the moving synchronous particle, so only the differential
/// kick ΔV = V(Δt) − V(0) enters eq. (3). The gap buffer is addressed
/// relative to the synchronous particle: the bus presents V(φ_s + ω·Δt).
[[nodiscard]] std::string ramp_beam_kernel_source(
    const BeamKernelConfig& config);

/// A small IO-free smoke kernel (used by tests and the quickstart example):
/// one damped-oscillator state pair, exercising every operator class.
[[nodiscard]] std::string demo_oscillator_source();

/// CORDIC-heavy showcase/benchmark kernel: IQ demodulation of a cavity probe
/// tone against an on-chip LO, with PI amplitude and phase servos driving a
/// first-order cavity model. Three trig evaluations per iteration plus
/// sqrt/div and predicated drive limiters — the worst case for the
/// interpreter's node-at-a-time walk and the headline workload for the
/// native codegen tier (docs/CODEGEN.md). Schedules on grid_4x4 (the
/// anti-diagonal's CORDIC PEs serialise the trig ops).
[[nodiscard]] std::string cavity_iq_servo_source();

}  // namespace citl::cgra
