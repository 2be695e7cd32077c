// The CGRA engine: lane-parallel execution of one compiled kernel
// (structure-of-arrays).
//
// A sweep runs the *same* compiled kernel over many operating points; the
// overlay exploits the tracking map's parallelism in hardware, and this is
// the software twin of that idea: BatchedCgraMachine executes N independent
// lanes of one CompiledKernel in lockstep. Node values live in
// structure-of-arrays layout — values_[node * lanes + lane], contiguous per
// node — so evaluating one dataflow node across all lanes is a tight,
// auto-vectorizable inner loop instead of N interpreter walks. A single
// closed loop (hil::TurnLoop, hil::Framework, hil::RampLoop) owns the same
// engine at one lane.
//
// Two execution modes with identical results (a tested invariant):
//   * functional     — evaluates the dataflow graph in topological order
//                      through the selected tier (exec_tier.hpp); used for
//                      long closed-loop runs and every batched lane,
//   * cycle-accurate — one lane only: walks the schedule cycle by cycle,
//                      issuing each operation on its PE at its context slot
//                      and committing results at op latency; IO hits the bus
//                      at the scheduled cycle. This mode is the software twin
//                      of the overlay, provides the deterministic timing the
//                      paper relies on, and is the scalar reference the
//                      bit-identity tests compare every lane against.
//
// Determinism contract (docs/BATCHING.md): every lane computes bit-identical
// results to a one-lane engine running the same inputs. The per-operator
// arithmetic is shared (cgra/exec.hpp), the CORDIC is evaluated branch-free
// across lanes with the same operation sequence as the scalar rotation, and
// sensor-bus traffic is issued per lane in ascending lane order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cgra/attribution.hpp"
#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"
#include "core/aligned.hpp"
#include "core/error.hpp"

namespace citl::cgra {

class NativeKernel;  // codegen.hpp

/// Lane-indexed sensor bus: the engine's IO interface. Each lane must see
/// its own scenario's buffers, so loads/stores carry the lane.
class LaneSensorBus {
 public:
  virtual ~LaneSensorBus() = default;
  virtual double read(std::size_t lane, SensorRegion region,
                      double offset) = 0;
  virtual void write(std::size_t lane, SensorRegion region, double offset,
                     double value) = 0;
};

/// Adapts N ordinary per-lane SensorBus instances (e.g. each framework's
/// private bus) to the lane-indexed interface.
class PerLaneBusAdapter final : public LaneSensorBus {
 public:
  explicit PerLaneBusAdapter(std::vector<SensorBus*> buses)
      : buses_(std::move(buses)) {}

  double read(std::size_t lane, SensorRegion region, double offset) override {
    CITL_CHECK(lane < buses_.size());
    return buses_[lane]->read(region, offset);
  }
  void write(std::size_t lane, SensorRegion region, double offset,
             double value) override {
    CITL_CHECK(lane < buses_.size());
    buses_[lane]->write(region, offset, value);
  }

 private:
  std::vector<SensorBus*> buses_;
};

class BatchedCgraMachine final : public BeamModel {
 public:
  /// The machine keeps references to the kernel and the bus; both must
  /// outlive it. `bus` must serve at least `lanes` lanes. `tier` picks the
  /// functional back end (exec_tier.hpp); kAuto and the no-compiler fallback
  /// resolve at construction.
  BatchedCgraMachine(const CompiledKernel& kernel, std::size_t lanes,
                     LaneSensorBus& bus,
                     Precision precision = Precision::kFloat32,
                     ExecTier tier = ExecTier::kInterpreter);
  /// A one-lane engine over an ordinary SensorBus (wrapped in an owned
  /// PerLaneBusAdapter). Kernel and bus must outlive the machine.
  BatchedCgraMachine(const CompiledKernel& kernel, SensorBus& bus,
                     Precision precision = Precision::kFloat32,
                     ExecTier tier = ExecTier::kInterpreter);
  ~BatchedCgraMachine() override;

  [[nodiscard]] const CompiledKernel& kernel() const noexcept override {
    return *kernel_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return lanes_; }
  [[nodiscard]] ExecTier exec_tier() const noexcept override { return tier_; }

  void reset() override;

  void set_param(ParamHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double param(ParamHandle h, std::size_t lane) const override;
  void set_state(StateHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double state(StateHandle h, std::size_t lane) const override;

  void snapshot_states(std::size_t lane, double* out) const override;
  void restore_states(std::size_t lane, const double* values) override;
  void snapshot_pipe_regs(std::size_t lane, double* out) const override;
  void restore_pipe_regs(std::size_t lane, const double* values) override;

  /// One functional iteration on every lane; returns the CGRA clock ticks
  /// one iteration occupies (== schedule length).
  unsigned run_iteration_all_lanes() override;
  /// The same call, spelled for one-lane owners.
  unsigned run_iteration() { return run_iteration_all_lanes(); }

  /// One functional iteration on a subset of lanes (ascending, no
  /// duplicates); inactive lanes keep their values, states and pipeline
  /// registers untouched. Used when scenarios of one batch end at different
  /// times. Bit-identical to running those lanes full-width.
  unsigned run_iteration_lanes(const std::uint32_t* lane_ids,
                               std::size_t n_active);

  /// One iteration cycle by cycle, always interpreted regardless of the
  /// tier (the timing twin); returns the CGRA clock ticks consumed
  /// (== schedule length). One-lane engines only.
  unsigned run_iteration_cycle_accurate();

  /// Value computed for `node` on `lane` in its most recent iteration.
  [[nodiscard]] double value(NodeId node, std::size_t lane) const;

  /// Iterations executed (one per run_iteration_* call).
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_;
  }
  /// Per-lane iteration count (lane_iterations()[l] == iterations lane l ran).
  [[nodiscard]] const std::vector<std::uint64_t>& lane_iterations()
      const noexcept {
    return lane_iterations_;
  }

 private:
  void init(ExecTier tier);
  template <typename F, typename LaneMap>
  void run_pass(const LaneMap& lm, std::size_t n);
  template <typename F, typename LaneMap>
  void eval_cordic(const Node& n, const double* in, double* out,
                   const LaneMap& lm, std::size_t n_active);
  template <typename LaneMap>
  void commit(const LaneMap& lm, std::size_t n_active);
  template <typename LaneMap>
  void commit_bookkeeping(const LaneMap& lm, std::size_t n_active);
  template <typename F>
  [[nodiscard]] F* scratch_base() noexcept;
  [[nodiscard]] double quantise(double v) const noexcept;
  void check_lane(std::size_t lane) const;
  void check_handle(bool valid, const char* what) const;

  [[nodiscard]] double* row(NodeId node) noexcept {
    return values_.data() + static_cast<std::size_t>(node) * lanes_;
  }
  [[nodiscard]] const double* operand_row(NodeId consumer,
                                          NodeId producer) const noexcept {
    const std::size_t p = static_cast<std::size_t>(producer) * lanes_;
    return kernel_->dfg.is_pipeline_edge(producer, consumer)
               ? pipe_regs_.data() + p
               : values_.data() + p;
  }

  const CompiledKernel* kernel_;
  std::unique_ptr<PerLaneBusAdapter> own_bus_;  ///< one-lane constructor only
  LaneSensorBus* bus_;
  Precision precision_;
  std::size_t lanes_;
  // Cache-line aligned: one f64 row (8 lanes) is exactly one line, and row
  // accesses must not straddle lines (core/aligned.hpp).
  core::CacheAlignedVector<double> values_;      ///< [node * lanes + lane]
  core::CacheAlignedVector<double> pipe_regs_;   ///< [node * lanes + lane]
  core::CacheAlignedVector<double> state_vals_;  ///< [state index * lanes + lane]
  core::CacheAlignedVector<double> param_vals_;  ///< [param index * lanes + lane]
  std::vector<NodeId> topo_;
  std::vector<int> param_slot_;     ///< node id -> param index (or -1)
  std::vector<int> state_slot_;     ///< node id -> state index (or -1)
  std::vector<float> scratch_f_;    ///< 4 * lanes CORDIC scratch (binary32)
  std::vector<double> scratch_d_;   ///< 4 * lanes CORDIC scratch (binary64)
  std::uint64_t iterations_ = 0;
  std::vector<std::uint64_t> lane_iterations_;
  AttributionCounters attribution_counters_;  ///< per-op cycle metrics
  // Obs handles resolved once in the constructor (name lookups take the
  // registry mutex). The per-iteration bookkeeping gates on
  // Registry::enabled() as one branch, so a disabled registry costs a single
  // relaxed load per iteration instead of one per instrument.
  obs::Counter* obs_batched_ = nullptr;
  obs::Counter* obs_lane_iters_ = nullptr;
  obs::Gauge* obs_lanes_active_ = nullptr;
  obs::Counter* obs_iterations_ = nullptr;
  obs::Counter* obs_cycles_ = nullptr;
  obs::Counter* obs_tier_iters_ = nullptr;
  ExecTier tier_ = ExecTier::kInterpreter;    ///< resolved (never kAuto)
  std::shared_ptr<const NativeKernel> native_;
};

}  // namespace citl::cgra
