// The model-facing interface of a kernel-executing machine.
//
// cgra::BatchedCgraMachine (batch.hpp) is the one engine that executes a
// compiled kernel; hil::TurnLoop, hil::Framework, the sweep engine and the
// oracle drive it — and the oracle's host reference model — through the
// BeamModel interface below, so a loop body is agnostic about whether it owns
// a one-lane engine or one lane of a shared batch.
//
// Arithmetic is performed in IEEE binary32 by default — the overlay's PEs
// are single-precision floating-point operators — with an optional binary64
// mode for precision studies.
//
// Parameters and loop-carried states are addressed through ParamHandle /
// StateHandle, resolved once from the kernel. Interactive callers (console,
// RPC) resolve by name per call through the citl::api helpers instead, and
// must stay off per-revolution hot paths.
#pragma once

#include <string_view>

#include "cgra/exec_tier.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"

namespace citl::cgra {

enum class Precision { kFloat32, kFloat64 };

/// Index of a runtime parameter within its kernel's parameter table.
/// Resolved once (param_handle / BeamModel::param_handle); valid only for
/// machines executing the kernel it was resolved from.
struct ParamHandle {
  int index = -1;
  [[nodiscard]] constexpr bool valid() const noexcept { return index >= 0; }
};

/// Index of a loop-carried state within its kernel's state table.
struct StateHandle {
  int index = -1;
  [[nodiscard]] constexpr bool valid() const noexcept { return index >= 0; }
};

/// Resolves `name` against the kernel's parameter table. Throws citl::Error
/// (ConfigError) naming the kernel and the offending key if absent.
[[nodiscard]] ParamHandle param_handle(const CompiledKernel& kernel,
                                       std::string_view name);
[[nodiscard]] StateHandle state_handle(const CompiledKernel& kernel,
                                       std::string_view name);
/// Non-throwing lookups: an invalid handle means "not present".
[[nodiscard]] ParamHandle find_param(const CompiledKernel& kernel,
                                     std::string_view name) noexcept;
[[nodiscard]] StateHandle find_state(const CompiledKernel& kernel,
                                     std::string_view name) noexcept;

namespace detail {
/// Shared ConfigError construction for every BeamModel, so a stale handle or
/// an out-of-range lane reports identically (kernel + key naming) whichever
/// model raised it.
[[noreturn]] void throw_invalid_handle(const CompiledKernel& kernel,
                                       const char* what);
[[noreturn]] void throw_lane_out_of_range(const CompiledKernel& kernel,
                                          std::size_t lane, std::size_t lanes);
}  // namespace detail

/// Common interface of the models that execute a kernel: the CGRA engine
/// (BatchedCgraMachine, N lanes of one kernel in lockstep) and the oracle's
/// host-f64 reference model.
class BeamModel {
 public:
  virtual ~BeamModel() = default;

  [[nodiscard]] virtual const CompiledKernel& kernel() const noexcept = 0;
  /// Number of independent lanes (scenarios) this model executes per
  /// iteration.
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// The execution tier this model actually runs (kAuto and the no-compiler
  /// fallback are resolved at construction — never kAuto here). All tiers
  /// are bit-identical; this is for reporting and tests.
  [[nodiscard]] virtual ExecTier exec_tier() const noexcept {
    return ExecTier::kInterpreter;
  }

  /// Resets every lane: states to initial values, params to defaults,
  /// pipeline registers cleared.
  virtual void reset() = 0;

  /// Per-lane parameter / state access. Throws citl::Error for an invalid
  /// handle or an out-of-range lane. Values are quantised to the machine's
  /// working precision on write, exactly like the hardware register file.
  virtual void set_param(ParamHandle h, double value, std::size_t lane) = 0;
  [[nodiscard]] virtual double param(ParamHandle h,
                                     std::size_t lane) const = 0;
  virtual void set_state(StateHandle h, double value, std::size_t lane) = 0;
  [[nodiscard]] virtual double state(StateHandle h,
                                     std::size_t lane) const = 0;

  /// Runs one kernel iteration on every lane (functionally); returns the
  /// CGRA clock ticks one iteration occupies (== schedule length — identical
  /// in functional and cycle-accurate execution, a tested invariant).
  virtual unsigned run_iteration_all_lanes() = 0;

  // --- checkpoint hooks (hil::Supervisor guard layer) ---------------------
  /// Number of loop-carried states — the snapshot image length.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return kernel().dfg.states().size();
  }
  /// Copies one lane's loop-carried state values (by state index) into
  /// `out[0 .. state_count())`. Pure read: never perturbs execution.
  virtual void snapshot_states(std::size_t lane, double* out) const = 0;
  /// Restores one lane's states from a snapshot_states() image, bit-exactly.
  /// Pipeline registers are not part of the image; after a rollback they
  /// still hold post-fault values for one iteration.
  virtual void restore_states(std::size_t lane, const double* values) = 0;

  /// Cross-iteration pipeline registers: the stage-0 node values latched by
  /// the previous iteration, read by the next iteration's stage-1 operations
  /// (one slot per DFG node). Loop-carried state therefore = states + pipe
  /// regs; the oracle's checkpoints snapshot both so a rollback replays the
  /// trajectory bit-exactly even on pipelined kernels. The Supervisor's
  /// state-only image stays intentionally smaller (a rollback there accepts
  /// one iteration of post-fault pipe values).
  [[nodiscard]] virtual std::size_t pipe_reg_count() const noexcept {
    return kernel().dfg.size();
  }
  /// Copies one lane's pipeline registers into `out[0 .. pipe_reg_count())`.
  virtual void snapshot_pipe_regs(std::size_t lane, double* out) const = 0;
  /// Restores one lane's pipeline registers, bit-exactly.
  virtual void restore_pipe_regs(std::size_t lane, const double* values) = 0;

  // Handle resolution against this model's kernel.
  [[nodiscard]] ParamHandle param_handle(std::string_view name) const {
    return cgra::param_handle(kernel(), name);
  }
  [[nodiscard]] StateHandle state_handle(std::string_view name) const {
    return cgra::state_handle(kernel(), name);
  }
};

}  // namespace citl::cgra
