// Pure-double host reference model of the beam-tracking kernels.
//
// The differential oracle's ground truth: an independent reimplementation of
// the per-revolution recursion (eqs. (2), (3), (5), (6) plus the §IV-B
// interpolated buffer sensing) written directly in C++ double arithmetic. It
// shares nothing with the CGRA toolchain except the bus protocol and the
// CORDIC primitive (the trig tables are the PE's *specification*, not part
// of the machinery under test) — so any divergence implicates the frontend,
// the scheduler, the engine or the kernel generator, not this model.
//
// The C++ expressions mirror the generated kernel source operation for
// operation in the same association order. Because every machine operator in
// f64 mode is the identical IEEE binary64 operation (cgra/exec.hpp), the
// host model agrees *bit-exactly* with a correct f64 machine — which is what
// lets the oracle demand a zero-ULP budget on that pair and catch one-ulp
// regressions.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cgra/kernels.hpp"
#include "cgra/machine.hpp"
#include "cgra/sensor.hpp"

namespace citl::oracle {

class HostReferenceModel final : public cgra::BeamModel {
 public:
  /// `analytic` selects the CORDIC waveform-synthesis recursion (the
  /// TurnLoopConfig::synthesize_waveform kernel); otherwise the sampled
  /// kernel is mirrored. `cfg` must be the *effective* kernel config the
  /// kernel was generated from (hil::effective_kernel_config).
  /// The ramp kernel has no host mirror (the oracle covers the turn loop).
  HostReferenceModel(std::shared_ptr<const cgra::CompiledKernel> kernel,
                     const cgra::BeamKernelConfig& cfg, bool analytic,
                     cgra::SensorBus& bus);

  [[nodiscard]] const cgra::CompiledKernel& kernel() const noexcept override {
    return *kernel_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 1; }

  void reset() override;

  void set_param(cgra::ParamHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double param(cgra::ParamHandle h,
                             std::size_t lane) const override;
  void set_state(cgra::StateHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double state(cgra::StateHandle h,
                             std::size_t lane) const override;

  unsigned run_iteration_all_lanes() override;

  void snapshot_states(std::size_t lane, double* out) const override;
  void restore_states(std::size_t lane, const double* values) override;
  /// The host model's cross-iteration image is exactly the values the
  /// pipelined kernel latches: V_R and the per-bunch V_j of the previous
  /// revolution (plain mode keeps the slots but never reads them).
  [[nodiscard]] std::size_t pipe_reg_count() const noexcept override {
    return pipe_.size();
  }
  void snapshot_pipe_regs(std::size_t lane, double* out) const override;
  void restore_pipe_regs(std::size_t lane, const double* values) override;

 private:
  void check_lane(std::size_t lane) const;
  void run_sampled();
  void run_analytic();

  std::shared_ptr<const cgra::CompiledKernel> kernel_;
  cgra::BeamKernelConfig cfg_;
  bool analytic_;
  cgra::SensorBus* bus_;

  // Tables aligned with the kernel's param/state tables so ParamHandle /
  // StateHandle indices address the same variables as on the machines.
  std::vector<double> params_;
  std::vector<double> states_;
  int s_gamma_ = -1;             ///< state index of gamma_r
  std::vector<int> s_dgamma_;    ///< state index of dgamma<j>
  std::vector<int> s_dt_;        ///< state index of dt<j>
  int p_v_scale_ = -1;           ///< param index (sampled kernel)
  int p_v_hat_ = -1;             ///< param index (analytic kernel)
  int p_gap_phase_ = -1;         ///< param index (analytic kernel)

  std::vector<double> pipe_;     ///< [0] = V_R, [1 + j] = V_j
};

}  // namespace citl::oracle
