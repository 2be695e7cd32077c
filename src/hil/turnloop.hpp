// Turn-granular closed loop: the compiled CGRA kernel running against an
// *analytic* sensor bus.
//
// The sample-accurate framework (framework.hpp) models every 250 MHz tick of
// the converter chain; that fidelity costs ~3 orders of magnitude in
// simulation speed. For second-long closed-loop experiments (Fig. 5) the
// turn loop replaces the converter chain with closed-form evaluations of the
// same signals — the DDS sines are evaluated exactly where the ring-buffer
// reads would have sampled them — while still executing the *real compiled
// kernel* on the CGRA machine every revolution and running the *real*
// controller. Tests pin the two loops against each other.
//
// A turn splits into begin_turn() (present this revolution's inputs) and
// finish_turn() (phase measurement + control) around the kernel execution,
// so a batched driver can run many loops' kernel iterations as lanes of one
// BatchedCgraMachine between the two halves. step() is the serial
// convenience that does all three against the loop's own model.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/schedule.hpp"
#include "core/random.hpp"
#include "ctrl/controller.hpp"
#include "fault/injector.hpp"
#include "hil/loop_config.hpp"
#include "hil/recorder.hpp"
#include "hil/supervisor.hpp"
#include "obs/deadline.hpp"

namespace citl::hil {

/// The turn-level loop: the shared LoopConfig plus the analytic sensor
/// bus's own knobs.
struct TurnLoopConfig : LoopConfig {
  /// Use the CORDIC waveform-synthesis kernel instead of the sampled one:
  /// the gap voltage is computed on-chip from v_hat/gap_phase parameters.
  bool synthesize_waveform = false;
  double phase_noise_rad = 0.0;        ///< detector noise injection
  std::uint64_t noise_seed = 7;
  /// Period-detector quantisation: when true the measured period is rounded
  /// to the capture clock and averaged over 4 periods like the hardware.
  bool quantise_period = false;
};

/// One revolution's observables.
struct TurnRecord {
  double time_s;
  double phase_rad;         ///< measured bunch phase (bunch 0)
  double dt_s;              ///< kernel state Δt of bunch 0
  double dgamma;            ///< kernel state Δγ of bunch 0
  double correction_hz;     ///< controller output in force
  double gap_phase_rad;     ///< total gap phase offset (jump + control)
};

class TurnLoop {
 public:
  /// Tag: construct without an owned machine. attach_model() must point the
  /// loop at a lane of a shared cgra::BeamModel before the first turn.
  struct ExternalModel {};

  explicit TurnLoop(const TurnLoopConfig& config);
  /// Constructs against an already-compiled kernel (shared, immutable); must
  /// equal compile_kernel of the effective_kernel_config() source. Scenario
  /// sweeps use this with a kernel cache so many loops share one compile.
  TurnLoop(const TurnLoopConfig& config,
           std::shared_ptr<const cgra::CompiledKernel> kernel);
  /// Shared kernel and no owned machine: the loop executes through an
  /// attached lane of an external model (batched sweeps).
  TurnLoop(const TurnLoopConfig& config,
           std::shared_ptr<const cgra::CompiledKernel> kernel, ExternalModel);
  ~TurnLoop();

  /// hil::effective_kernel_config(config), kept as a member for callers
  /// that name it through the class.
  [[nodiscard]] static cgra::BeamKernelConfig effective_kernel_config(
      const TurnLoopConfig& config) {
    return hil::effective_kernel_config(config);
  }

  /// Points the loop at lane `lane` of a shared model (its sensor bus for
  /// that lane must be this loop's cgra_bus()). The model must execute this
  /// loop's kernel.
  void attach_model(cgra::BeamModel& model, std::size_t lane);

  /// Runs one revolution; returns its observables. Serial path only: with an
  /// attached multi-lane model, use begin_turn()/finish_turn() and drive the
  /// batched iteration externally.
  TurnRecord step();

  // --- split-turn API (batched drivers) -----------------------------------
  /// Presents this revolution's inputs (measured period, gap phase, waveform
  /// parameters) to the bus and the model lane.
  void begin_turn();
  /// Completes the revolution after the kernel iteration ran: phase
  /// measurement, control update, deadline accounting. `exec_cycles` is what
  /// the iteration consumed (schedule length in functional mode).
  TurnRecord finish_turn(unsigned exec_cycles);

  /// Runs `turns` revolutions, invoking `cb` (if any) per turn.
  void run(std::int64_t turns,
           const std::function<void(const TurnRecord&)>& cb = {});

  /// Displaces the simulated bunch (test hook; the paper excites via the
  /// inputs instead — use jump programmes for that).
  void displace(double dgamma, double dt_s);

  /// The loop's analytic sensor bus — attach it as this loop's lane of a
  /// cgra::PerLaneBusAdapter when executing through a batched machine.
  [[nodiscard]] cgra::SensorBus& cgra_bus() noexcept;

  [[nodiscard]] double time_s() const noexcept { return time_s_; }
  [[nodiscard]] std::int64_t turn() const noexcept { return turn_; }
  /// The model executing this loop's kernel (owned one-lane engine or
  /// attached lane).
  [[nodiscard]] cgra::BeamModel& model() noexcept { return *model_; }
  [[nodiscard]] std::size_t lane() const noexcept { return lane_; }
  [[nodiscard]] const cgra::CompiledKernel& kernel() const noexcept {
    return *kernel_;
  }
  [[nodiscard]] std::shared_ptr<const cgra::CompiledKernel> kernel_ptr()
      const noexcept {
    return kernel_;
  }
  [[nodiscard]] const TurnLoopConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] double gap_phase_rad() const noexcept;

  /// Per-revolution deadline accounting: schedule cycles against the
  /// revolution-period budget at the CGRA clock — the same bookkeeping the
  /// sample-accurate framework performs, so turn-level sweeps report the
  /// identical real-time metrics.
  [[nodiscard]] const obs::DeadlineProfiler& deadline() const noexcept {
    return deadline_;
  }
  /// Turns that missed their deadline: the profiler's own count.
  [[nodiscard]] std::int64_t realtime_violations() const noexcept {
    return deadline_.misses();
  }

  /// Opens/closes the phase control loop at runtime.
  void enable_control(bool on) noexcept { control_on_ = on; }

  // --- checkpoint / rollback (oracle divergence bisection) ----------------
  /// Full image of the loop at a turn boundary: loop bookkeeping (time,
  /// turn counter, control/controller/decimator/noise state, deadline
  /// accounting) plus the model lane's loop-carried states AND pipeline
  /// registers — restoring replays the subsequent turns bit-exactly.
  /// Opaque: produce with checkpoint(), consume with restore().
  struct Checkpoint {
    double time_s = 0.0;
    std::int64_t turn = 0;
    bool control_on = true;
    double ctrl_phase_rad = 0.0;
    double correction_hz = 0.0;
    double last_phase = 0.0;
    double budget_cycles = 0.0;
    ctrl::BeamPhaseController controller;
    ctrl::PhaseDecimator decimator;
    Rng noise;
    obs::DeadlineProfiler deadline;
    std::vector<double> states;     ///< model lane states (by state index)
    std::vector<double> pipe_regs;  ///< model lane pipeline registers

    Checkpoint(const ctrl::BeamPhaseController& c, const ctrl::PhaseDecimator& d)
        : controller(c), decimator(d) {}
  };

  /// Captures the loop + model-lane state between turns. Only legal on
  /// fault-free, unsupervised loops (injector/supervisor state is not part
  /// of the image) and with no turn open.
  [[nodiscard]] Checkpoint checkpoint() const;
  /// Rolls the loop + model lane back to a checkpoint() image, bit-exactly.
  void restore(const Checkpoint& cp);

  /// The fault injector driving this run (nullptr on a fault-free run).
  [[nodiscard]] const fault::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  /// The supervised recovery layer (nullptr unless config.supervisor.enabled).
  [[nodiscard]] const Supervisor* supervisor() const noexcept {
    return supervisor_.get();
  }
  /// True once the supervisor's kAbort deadline policy stopped the run.
  [[nodiscard]] bool aborted() const noexcept {
    return supervisor_ != nullptr && supervisor_->abort_requested();
  }

 private:
  class AnalyticBus;

  TurnLoopConfig config_;
  std::shared_ptr<const cgra::CompiledKernel> kernel_;
  std::unique_ptr<AnalyticBus> bus_;
  std::unique_ptr<cgra::BatchedCgraMachine> machine_;  ///< null if external
  cgra::BeamModel* model_ = nullptr;  ///< machine_ or attached lane
  std::size_t lane_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<Supervisor> supervisor_;
  ctrl::BeamPhaseController controller_;
  ctrl::PhaseDecimator decimator_;
  Rng noise_;

  // Handles resolved once against the kernel (invalid when the kernel has no
  // such variable — v_hat/gap_phase exist only in the synthesis kernel).
  cgra::ParamHandle h_v_hat_;
  cgra::ParamHandle h_gap_phase_;
  cgra::StateHandle h_dt0_;
  cgra::StateHandle h_dgamma0_;

  double t_ref_s_;          ///< reference period
  double omega_gap_;        ///< 2π·h·f_ref
  double time_s_ = 0.0;
  std::int64_t turn_ = 0;
  bool control_on_ = true;
  bool turn_open_ = false;  ///< begin_turn() ran, finish_turn() pending
  double ctrl_phase_rad_ = 0.0;   ///< integral of frequency corrections
  double correction_hz_ = 0.0;
  double last_phase_ = 0.0;       ///< last good measured phase (output guard)
  double budget_cycles_ = 0.0;    ///< this turn's deadline budget
  obs::DeadlineProfiler deadline_;
};

}  // namespace citl::hil
