// Ramp-capable HIL loop — the paper's announced next step (§VI: "Currently,
// we are also implementing the ramp-up case ... the challenge is to emulate
// the acceleration phase with variable RF frequencies and amplitudes").
//
// The reference DDS frequency sweeps along a programme (as the real Group
// DDS does during acceleration); the CGRA runs the ramp kernel
// (cgra::ramp_beam_kernel_source), which re-derives the reference energy
// from the measured period every revolution instead of integrating eq. (2).
// The loop computes the synchronous phase each turn from the sweep rate —
// φ_s = asin(V_sync / V̂) — and presents the gap waveform relative to the
// synchronous particle, so the kernel's ΔV kick sees the correct shrinking
// (running) bucket.
#pragma once

#include <cstdint>
#include <memory>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "phys/rf.hpp"

namespace citl::hil {

struct RampLoopConfig {
  cgra::BeamKernelConfig kernel;      ///< ion/ring/bunches/pipelining
  cgra::CgraArch arch = cgra::grid_5x5();
  double f_start_hz = 214.0e3;        ///< injection revolution frequency
  double f_end_hz = 600.0e3;          ///< extraction-plateau frequency
  double ramp_s = 0.1;                ///< sweep duration (linear in f)
  /// RF amplitude programme (synchronous phase is *derived* from the sweep,
  /// so only the amplitude ramp of the programme is used here).
  phys::RfProgramme programme =
      phys::RfProgramme::linear_ramp(4000.0, 16000.0, 0.0, 0.1);
  double gap_amplitude_v = 0.8;       ///< at the ADC
  bool cycle_accurate = false;
};

struct RampRecord {
  double time_s = 0.0;
  double f_ref_hz = 0.0;
  double gap_amplitude_v = 0.0;   ///< physical V̂ at this turn
  double sync_phase_rad = 0.0;    ///< derived φ_s
  double dt_s = 0.0;              ///< bunch-0 offset from the sync particle
  double dgamma = 0.0;
  double bucket_fill = 0.0;       ///< |Δt| / (running-bucket half length)
};

class RampLoop {
 public:
  explicit RampLoop(const RampLoopConfig& config);
  ~RampLoop();

  /// One revolution at the current sweep position. Throws ConfigError if the
  /// programme demands more synchronous voltage than the amplitude provides
  /// (ramp too fast — the real machine would lose the beam).
  RampRecord step();

  /// Displaces bunch 0 (injection error emulation).
  void displace(double dgamma, double dt_s);

  [[nodiscard]] double time_s() const noexcept { return time_s_; }
  [[nodiscard]] double f_ref_hz() const noexcept;
  [[nodiscard]] bool ramp_done() const noexcept {
    return time_s_ >= config_.ramp_s;
  }
  [[nodiscard]] const cgra::CompiledKernel& kernel() const noexcept {
    return kernel_;
  }
  [[nodiscard]] cgra::BatchedCgraMachine& machine() noexcept {
    return *machine_;
  }

 private:
  class RampBus;

  RampLoopConfig config_;
  cgra::CompiledKernel kernel_;
  std::unique_ptr<RampBus> bus_;
  std::unique_ptr<cgra::BatchedCgraMachine> machine_;
  cgra::StateHandle h_dt0_;
  cgra::StateHandle h_dgamma0_;
  double time_s_ = 0.0;
};

}  // namespace citl::hil
