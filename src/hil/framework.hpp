// Sample-accurate FPGA framework model (§III, Fig. 3).
//
// Every 250 MHz converter tick flows through the same blocks as the
// hardware:
//
//   ref DDS ──► ADC ch0 ──► capture buffer ──► zero-crossing detector ──►
//                                              period-length detector
//   gap DDS ──► ADC ch1 ──► capture buffer
//                             │
//             (per reference period)  CGRA ◄── SensorAccess bus ──► buffers
//                             │         │
//                             ▼         ▼ actuator (Δt per bunch)
//                        Gauss pulse generator ──► DAC ch0 (beam signal)
//                        monitor mux            ──► DAC ch1
//
// The DSP phase detector and the FIR beam-phase controller close the loop
// from the beam signal back onto the gap DDS, exactly like the external
// electronics in the paper's test bench (Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/jump.hpp"
#include "ctrl/iqdetector.hpp"
#include "ctrl/phasedetector.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "hil/parambus.hpp"
#include "hil/recorder.hpp"
#include "hil/supervisor.hpp"
#include "obs/deadline.hpp"
#include "sig/converters.hpp"
#include "sig/dds.hpp"
#include "sig/gauss.hpp"
#include "sig/ringbuffer.hpp"
#include "sig/zerocross.hpp"

namespace citl::obs {
class Counter;
}  // namespace citl::obs

namespace citl::hil {

/// Which DSP phase-measurement style closes the loop (both exist in real
/// LLRF firmware; the IQ demodulator averages over bunch passages and is the
/// noise-robust choice, the pulse centroid has more bandwidth).
enum class PhaseDetectorKind : std::uint8_t {
  kPulseCentroid,
  kIqDemodulation,
};

struct FrameworkConfig {
  cgra::BeamKernelConfig kernel;
  cgra::CgraArch arch = cgra::grid_5x5();
  double f_ref_hz = 800.0e3;
  double ref_amplitude_v = 0.8;
  double gap_amplitude_v = 0.8;
  double gap_voltage_v = 5000.0;    ///< physical gap amplitude [V]
  /// Dual-harmonic cavity system: second gap DDS at twice the RF frequency
  /// (amplitude ratio·gap_amplitude, relative phase; π = bunch lengthening).
  double gap_h2_ratio = 0.0;
  double gap_h2_phase_rad = 3.14159265358979323846;
  double adc_noise_rms_v = 0.0;
  /// Stream selector for the ADC noise generators: scenario sweeps give each
  /// framework instance its own deterministic noise realisation. 0 keeps the
  /// historical seeds, so single-instance runs are unchanged.
  std::uint64_t noise_seed = 0;
  unsigned buffer_depth_log2 = 13;  ///< paper: 2^13 samples per channel
  double pulse_sigma_s = 30.0e-9;   ///< Gauss beam-pulse sigma
  double pulse_amplitude_v = 0.6;
  double detector_threshold_v = 0.05;
  bool control_enabled = true;
  PhaseDetectorKind detector = PhaseDetectorKind::kPulseCentroid;
  double iq_averaging_revolutions = 8.0;
  ctrl::ControllerConfig controller;
  std::optional<ctrl::PhaseJumpProgramme> jumps;
  bool cycle_accurate_cgra = false;
  /// Kernel execution back end (cgra/exec_tier.hpp). All tiers are
  /// bit-identical; kAuto picks native codegen when a host compiler exists.
  /// The cycle-accurate mode always interprets regardless of this knob.
  cgra::ExecTier exec_tier = cgra::ExecTier::kInterpreter;
  /// Scripted fault campaign, in converter ticks (empty = healthy run; the
  /// loop is byte-identical to a build without the injector).
  fault::FaultPlan faults;
  /// Supervised recovery layer (disabled by default; enabling it with no
  /// fault active leaves outputs byte-identical — a tested invariant).
  SupervisorConfig supervisor;
};

/// Observable outputs of one converter tick.
struct FrameworkOutputs {
  double beam_v = 0.0;     ///< DAC ch0: the synthetic beam signal
  double monitor_v = 0.0;  ///< DAC ch1: phase difference or beam mirror
};

class Framework {
 public:
  explicit Framework(const FrameworkConfig& config);

  /// Constructs against an already-compiled kernel (shared, immutable). The
  /// kernel must equal `compile_kernel(beam_kernel_source(
  /// effective_kernel_config(config)), config.arch)` — scenario sweeps use
  /// this with a kernel cache so a hundred frameworks share one compilation.
  /// Each framework still owns its private one-lane engine (all mutable
  /// state).
  Framework(const FrameworkConfig& config,
            std::shared_ptr<const cgra::CompiledKernel> kernel);
  ~Framework();

  /// The kernel configuration actually compiled: host-side initialisation
  /// (§IV-B) bakes gamma0 from the revolution frequency and the ADC-to-gap
  /// voltage scaling into the kernel constants.
  [[nodiscard]] static cgra::BeamKernelConfig effective_kernel_config(
      const FrameworkConfig& config);

  /// Advances one 250 MHz tick; returns the DAC outputs for that tick.
  FrameworkOutputs tick();

  /// Runs for `ticks` samples.
  void run_ticks(std::int64_t ticks);
  /// Runs for `seconds` of simulated time.
  void run_seconds(double seconds);

  // --- deferred CGRA execution (batched sweeps) ---------------------------
  // In deferred mode a reference crossing *requests* a kernel iteration
  // instead of running the private machine; an external driver executes one
  // batched iteration across many frameworks' lanes (their buses attached
  // through a cgra::PerLaneBusAdapter) and then acknowledges each lane. The
  // framework is parked right after the crossing tick, so every bus read and
  // actuator write the kernel performs observes exactly the state the serial
  // path would have seen (docs/BATCHING.md discusses the one exception, the
  // monitor DAC sample of the crossing tick itself).

  /// Switches tick() to raising CGRA requests. Enable before the first tick.
  void set_cgra_deferred(bool on) noexcept { cgra_deferred_ = on; }
  /// The framework's sensor bus, for attaching to a batched machine's lane.
  [[nodiscard]] cgra::SensorBus& cgra_bus() noexcept;
  /// Ticks until a CGRA request is raised or `max_ticks` elapse. Returns
  /// true when a request is pending (complete_cgra_run() must follow before
  /// the next call).
  bool run_until_cgra_request(std::int64_t max_ticks);
  [[nodiscard]] bool cgra_request_pending() const noexcept {
    return cgra_pending_;
  }
  /// Acknowledges the pending request after the external model executed this
  /// lane; performs the same deadline accounting the owned path does.
  void complete_cgra_run(unsigned exec_cycles);

  /// Points the injector's state faults and the supervisor's state guard at
  /// the model that actually executes this framework's kernel — call after
  /// attaching the bus to lane `lane` of a batched machine. The owned
  /// one-lane engine is the default.
  void attach_cgra_model(cgra::BeamModel& model, std::size_t lane);

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

  [[nodiscard]] Tick now() const noexcept { return now_; }
  [[nodiscard]] double time_s() const noexcept;
  [[nodiscard]] bool initialised() const noexcept { return initialised_; }
  [[nodiscard]] std::int64_t cgra_runs() const noexcept { return cgra_runs_; }
  /// Revolutions in which the CGRA schedule would not have finished within
  /// one reference period at the configured CGRA clock (real-time misses).
  [[nodiscard]] std::int64_t realtime_violations() const noexcept {
    return realtime_violations_;
  }
  /// Per-revolution deadline accounting: schedule cycles vs period budget,
  /// headroom distribution and the worst misses (§IV-B made measurable).
  /// Purely simulation-derived, hence deterministic.
  [[nodiscard]] const obs::DeadlineProfiler& deadline() const noexcept {
    return deadline_;
  }

  [[nodiscard]] const cgra::CompiledKernel& kernel() const noexcept {
    return *kernel_;
  }
  [[nodiscard]] cgra::BatchedCgraMachine& machine() noexcept {
    return *machine_;
  }
  [[nodiscard]] ParameterBus& params() noexcept { return params_; }
  [[nodiscard]] const FrameworkConfig& config() const noexcept {
    return config_;
  }

  /// Recorded series (time-stamped), in the spirit of the DRAM recorder.
  [[nodiscard]] const Trace& phase_trace() const noexcept {
    return phase_trace_;
  }
  [[nodiscard]] const Trace& correction_trace() const noexcept {
    return correction_trace_;
  }
  [[nodiscard]] const Trace& beam_trace() const noexcept {
    return beam_trace_;
  }
  [[nodiscard]] Trace& beam_trace() noexcept { return beam_trace_; }

  /// Most recent measured bunch phase [rad] (NaN before the first pulse).
  [[nodiscard]] double last_phase_rad() const noexcept { return last_phase_; }

  void enable_control(bool on) noexcept { control_on_ = on; }
  [[nodiscard]] bool control_enabled() const noexcept { return control_on_; }

  /// Reshapes the Gauss pulse at run time (§VI's "parametric version" —
  /// e.g. widening the pulse as the bunch lengthens).
  void set_pulse_shape(double sigma_s, double amplitude_v);

 private:
  class FrameworkBus;
  void on_reference_crossing();
  void synthetic_reference_crossing();
  void run_cgra();
  void account_cgra_run(unsigned exec_cycles, double budget_cycles,
                        double when_s);
  /// Post-revolution hooks shared by the serial, skipped/held and deferred
  /// completion paths: injected state faults, then the supervisor pass.
  void post_turn();
  /// Re-issues the last good actuator writes (kHoldOutputs deadline policy).
  void replay_actuator_writes();
  void handle_phase_sample(const ctrl::PhaseSample& sample);

  FrameworkConfig config_;
  std::shared_ptr<const cgra::CompiledKernel> kernel_;
  std::unique_ptr<FrameworkBus> bus_;
  std::unique_ptr<cgra::BatchedCgraMachine> machine_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<Supervisor> supervisor_;
  cgra::BeamModel* exec_model_ = nullptr;  ///< model executing this lane
  std::size_t exec_lane_ = 0;

  sig::Dds ref_dds_;
  sig::Dds gap_dds_;
  sig::Dds gap2_dds_;
  sig::Adc adc_ref_;
  sig::Adc adc_gap_;
  sig::Dac dac_beam_;
  sig::Dac dac_monitor_;
  sig::CaptureBuffer ref_buf_;
  sig::CaptureBuffer gap_buf_;
  sig::ZeroCrossingDetector zero_cross_;
  sig::PeriodLengthDetector period_det_;
  sig::GaussPulseGenerator pulse_gen_;
  ctrl::PulsePhaseDetector phase_det_;
  ctrl::IqPhaseDetector iq_det_;
  ctrl::BeamPhaseController controller_;
  ctrl::PhaseDecimator decimator_;
  ParameterBus params_;

  Tick now_ = 0;
  bool initialised_ = false;
  bool control_on_ = true;
  double prev_crossing_tick_ = 0.0;
  double last_crossing_tick_ = 0.0;
  /// Period the current revolution runs on (watchdog-filtered when the
  /// supervisor is enabled); the kernel's kPeriod reads serve this value.
  double current_period_s_ = 0.0;
  double ctrl_phase_rad_ = 0.0;
  double correction_hz_ = 0.0;
  double last_phase_ = 0.0;
  std::int64_t cgra_runs_ = 0;
  std::int64_t realtime_violations_ = 0;
  obs::DeadlineProfiler deadline_;

  // Deferred-CGRA bookkeeping: budget and timestamp are captured at the
  // request point so the external completion records exactly what the owned
  // path would have.
  bool cgra_deferred_ = false;
  bool cgra_pending_ = false;
  double pending_budget_cycles_ = 0.0;
  double pending_time_s_ = 0.0;
  unsigned pending_stall_cycles_ = 0;

  // Last actuator write per bunch, for the kHoldOutputs deadline policy and
  // the non-finite output guard.
  std::vector<double> last_arrivals_;
  std::vector<bool> arrival_seen_;

  // Parameter-bus handles for the per-tick registers (resolved once; the
  // string API remains for interactive use).
  ParameterBus::Handle record_enable_ = nullptr;
  ParameterBus::Handle beam_pulse_scale_ = nullptr;
  ParameterBus::Handle monitor_source_ = nullptr;

  // Global-registry handles, resolved once at construction (no-ops while
  // the registry is disabled — the default).
  obs::Counter* obs_revolutions_ = nullptr;
  obs::Counter* obs_phase_samples_ = nullptr;
  obs::Counter* obs_corrections_ = nullptr;
  obs::Counter* obs_deadline_misses_ = nullptr;

  Trace phase_trace_;
  Trace correction_trace_;
  Trace beam_trace_;
};

}  // namespace citl::hil
