// The kernel source, evaluated directly: an independent binary64 reference.
//
// SourceEvaluator parses a kernel's source once, resolves names, constants
// and pipeline reads into a flat list of operations, and evaluates that
// list every iteration in binary64 with the PE's own operator definitions
// (detail::eval_scalar<double>, cgra/exec.hpp). It follows docs/LANGUAGE.md
// and takes nothing from lowering, the dataflow IR, the scheduler, the
// engine or the native emitter, so a correct f64 engine agrees with it bit
// for bit and a lowering or pipeline-edge bug shows up as a divergence. It
// is the oracle's host_f64 fidelity and a reference of the fuzz net.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "cgra/machine.hpp"
#include "cgra/op.hpp"
#include "cgra/sensor.hpp"

namespace citl::cgra {

class SourceEvaluator final : public BeamModel {
 public:
  /// `kernel` supplies the param/state tables that handles index (with
  /// their defaults and initial values) and the schedule length; `source`
  /// is the kernel source it was compiled from. Throws CompileError on a
  /// malformed source and ConfigError when the source's params or states
  /// do not match the kernel's tables. The bus must outlive the evaluator.
  SourceEvaluator(std::shared_ptr<const CompiledKernel> kernel,
                  std::string_view source, SensorBus& bus);

  [[nodiscard]] const CompiledKernel& kernel() const noexcept override {
    return *kernel_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 1; }

  void reset() override { mem_ = initial_; }

  void set_param(ParamHandle h, double value, std::size_t lane) override {
    mem_[slot(h.index, false, lane)] = value;
  }
  [[nodiscard]] double param(ParamHandle h, std::size_t lane) const override {
    return mem_[slot(h.index, false, lane)];
  }
  void set_state(StateHandle h, double value, std::size_t lane) override {
    mem_[slot(h.index, true, lane)] = value;
  }
  [[nodiscard]] double state(StateHandle h, std::size_t lane) const override {
    return mem_[slot(h.index, true, lane)];
  }

  unsigned run_iteration_all_lanes() override;

  void snapshot_states(std::size_t lane, double* out) const override;
  void restore_states(std::size_t lane, const double* values) override;
  /// One register per stage-0 value that a stage-1 operation reads.
  [[nodiscard]] std::size_t pipe_reg_count() const noexcept override {
    return pipes_.size();
  }
  void snapshot_pipe_regs(std::size_t lane, double* out) const override;
  void restore_pipe_regs(std::size_t lane, const double* values) override;

 private:
  class Resolver;

  /// One resolved operation: `out = kind(a, b, c)` over slots of mem_
  /// (kLoad reads address `a`; kStore writes `b` to address `a`).
  struct Op {
    OpKind kind;
    std::uint32_t out, a, b, c;
  };

  void check_lane(std::size_t lane) const;
  /// The mem_ slot of param or state `index`; throws for a bad handle.
  [[nodiscard]] std::size_t slot(int index, bool is_state,
                                 std::size_t lane) const;

  std::shared_ptr<const CompiledKernel> kernel_;
  SensorBus* bus_;
  /// [params | states | constants, computed values, pipeline registers],
  /// params and states in the kernel's table order.
  std::vector<double> mem_;
  std::vector<double> initial_;  ///< mem_ after reset: defaults, zero regs
  std::vector<Op> ops_;
  std::vector<std::uint32_t> state_next_;  ///< per state: slot of its update
  std::vector<double> next_;               ///< state commit scratch
  /// (register slot, stage-0 value slot), latched after every iteration.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pipes_;
};

}  // namespace citl::cgra
