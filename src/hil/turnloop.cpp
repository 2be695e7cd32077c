#include "hil/turnloop.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/error.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace citl::hil {

/// Analytic sensor bus: answers ring-buffer reads with closed-form DDS
/// evaluations at the exact points the capture buffers would have sampled.
class TurnLoop::AnalyticBus final : public cgra::SensorBus {
 public:
  AnalyticBus(double f_ref_hz, double sample_rate_hz, int harmonic,
              double ref_amplitude_v, double gap_amplitude_v,
              double h2_ratio, double h2_phase_rad)
      : f_ref_(f_ref_hz),
        fs_(sample_rate_hz),
        harmonic_(harmonic),
        ref_amp_(ref_amplitude_v),
        gap_amp_(gap_amplitude_v),
        h2_ratio_(h2_ratio),
        h2_phase_(h2_phase_rad) {}

  double read(cgra::SensorRegion region, double offset) override {
    switch (region) {
      case cgra::SensorRegion::kPeriod:
        return offset < 0.5 ? measured_period_s : 1.0 / f_ref_;
      case cgra::SensorRegion::kRefBuf:
        return reference(offset);
      case cgra::SensorRegion::kGapBuf: {
        const double t = offset / fs_;
        const double theta =
            kTwoPi * f_ref_ * static_cast<double>(harmonic_) * t +
            gap_phase_rad;
        double v = gap_amp_ * std::sin(theta);
        if (h2_ratio_ != 0.0) {
          // The second cavity tracks the fundamental's phase: a shift of θ
          // at h·f_ref is 2θ at 2h·f_ref, keeping the waveform shape rigid.
          v += gap_amp_ * h2_ratio_ * std::sin(2.0 * theta + h2_phase_);
        }
        return v;
      }
      default:
        CITL_CHECK_MSG(false, "read from a write-only sensor region");
        return 0.0;
    }
  }

  void write(cgra::SensorRegion region, double offset, double value) override {
    switch (region) {
      case cgra::SensorRegion::kActuator: {
        const auto j = static_cast<std::size_t>(offset + 0.5);
        CITL_CHECK_MSG(j < arrivals.size(), "actuator bunch index out of range");
        arrivals[j] = value;
        return;
      }
      case cgra::SensorRegion::kMonitor:
        monitor = value;
        return;
      default:
        CITL_CHECK_MSG(false, "write to a read-only sensor region");
    }
  }

  // Per-turn inputs set by the loop:
  double measured_period_s = 0.0;
  double gap_phase_rad = 0.0;
  // Per-turn outputs captured from the kernel:
  std::array<double, 16> arrivals{};
  double monitor = 0.0;

 private:
  /// A reference-buffer sample already computed at an integral offset.
  struct RefSample {
    std::int32_t offset = std::numeric_limits<std::int32_t>::min();  // none
    double value = 0.0;
  };

  /// The reference sine at `offset` capture ticks from its positive zero
  /// crossing, where its phase is 0. The value depends on the offset alone,
  /// so samples at integral offsets (the kernel reads floor(dT * fs) and
  /// the tick after it) are kept in a small direct-mapped table; a hit is
  /// the same double a fresh evaluation gives. -0.0 is evaluated afresh,
  /// since its sine differs from +0.0's in the sign bit.
  double reference(double offset) {
    // Offsets span [-kRegionBias, kRegionBias) (cgra/sensor.hpp).
    if (offset > -cgra::kRegionBias && offset < cgra::kRegionBias) {
      const auto k = static_cast<std::int32_t>(offset);
      const bool integral = static_cast<double>(k) == offset &&
                            !(k == 0 && std::signbit(offset));
      if (integral) {
        RefSample& slot =
            ref_samples_[static_cast<std::uint32_t>(k) % ref_samples_.size()];
        if (slot.offset != k) slot = RefSample{k, evaluate_reference(offset)};
        return slot.value;
      }
    }
    return evaluate_reference(offset);
  }
  [[nodiscard]] double evaluate_reference(double offset) const {
    const double t = offset / fs_;
    return ref_amp_ * std::sin(kTwoPi * f_ref_ * t);
  }

  double f_ref_;
  double fs_;
  int harmonic_;
  double ref_amp_;
  double gap_amp_;
  double h2_ratio_;
  double h2_phase_;
  std::array<RefSample, 32> ref_samples_{};
};

TurnLoop::TurnLoop(const TurnLoopConfig& config)
    : TurnLoop(config, nullptr) {}

TurnLoop::TurnLoop(const TurnLoopConfig& config,
                   std::shared_ptr<const cgra::CompiledKernel> kernel)
    : TurnLoop(config, std::move(kernel), ExternalModel{}) {
  machine_ = std::make_unique<cgra::BatchedCgraMachine>(
      *kernel_, *bus_, cgra::Precision::kFloat32, config.exec_tier);
  attach_model(*machine_, 0);
}

TurnLoop::TurnLoop(const TurnLoopConfig& config,
                   std::shared_ptr<const cgra::CompiledKernel> kernel,
                   ExternalModel)
    : config_(config),
      controller_(config.controller),
      decimator_(static_cast<std::size_t>(
          std::lround(config.f_ref_hz / config.controller.sample_rate_hz))),
      noise_(config.noise_seed) {
  CITL_CHECK_MSG(config.f_ref_hz > 0.0, "reference frequency must be positive");

  const cgra::BeamKernelConfig kc = hil::effective_kernel_config(config);
  if (kernel) {
    kernel_ = std::move(kernel);
  } else {
    kernel_ = std::make_shared<const cgra::CompiledKernel>(cgra::compile_kernel(
        config.synthesize_waveform ? cgra::analytic_beam_kernel_source(kc)
                                   : cgra::beam_kernel_source(kc),
        config.arch,
        config.synthesize_waveform ? "beam_analytic" : "beam_sampled"));
  }

  bus_ = std::make_unique<AnalyticBus>(config.f_ref_hz, kc.sample_rate_hz,
                                       kc.ring.harmonic,
                                       config.ref_amplitude_v,
                                       config.gap_amplitude_v,
                                       config.gap_h2_ratio,
                                       config.gap_h2_phase_rad);

  h_v_hat_ = cgra::find_param(*kernel_, "v_hat");
  h_gap_phase_ = cgra::find_param(*kernel_, "gap_phase");
  h_dt0_ = cgra::state_handle(*kernel_, "dt0");
  h_dgamma0_ = cgra::state_handle(*kernel_, "dgamma0");

  t_ref_s_ = 1.0 / config.f_ref_hz;
  omega_gap_ = kTwoPi * config.f_ref_hz *
               static_cast<double>(kc.ring.harmonic);
  control_on_ = config.control_enabled;

  if (!config.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config.faults, config.noise_seed,
        fault::FaultInjector::Host::kTurnLevel);
    injector_->resolve_targets(*kernel_);
  }
  if (config.supervisor.enabled) {
    // attach_model() points the supervisor's state guard at the model lane.
    supervisor_ = std::make_unique<Supervisor>(config.supervisor);
  }
}

TurnLoop::~TurnLoop() = default;

void TurnLoop::attach_model(cgra::BeamModel& model, std::size_t lane) {
  CITL_CHECK_MSG(&model.kernel() == kernel_.get(),
                 "attached model executes a different kernel");
  CITL_CHECK_MSG(lane < model.lanes(), "attach_model lane out of range");
  model_ = &model;
  lane_ = lane;
  if (supervisor_ != nullptr) supervisor_->attach_model(model, lane);
}

cgra::SensorBus& TurnLoop::cgra_bus() noexcept { return *bus_; }

double TurnLoop::gap_phase_rad() const noexcept {
  const double jump =
      config_.jumps ? config_.jumps->phase_rad(time_s_) : 0.0;
  return jump + ctrl_phase_rad_;
}

void TurnLoop::displace(double dgamma, double dt_s) {
  CITL_CHECK_MSG(model_ != nullptr, "no model attached");
  model_->set_state(h_dgamma0_, dgamma, lane_);
  model_->set_state(h_dt0_, dt_s, lane_);
}

TurnLoop::Checkpoint TurnLoop::checkpoint() const {
  CITL_CHECK_MSG(model_ != nullptr, "no model attached");
  CITL_CHECK_MSG(!turn_open_, "checkpoint() inside an open turn");
  CITL_CHECK_MSG(injector_ == nullptr && supervisor_ == nullptr,
                 "checkpoint() with fault injection or supervision: their "
                 "internal state is not part of the image");
  Checkpoint cp(controller_, decimator_);
  cp.time_s = time_s_;
  cp.turn = turn_;
  cp.control_on = control_on_;
  cp.ctrl_phase_rad = ctrl_phase_rad_;
  cp.correction_hz = correction_hz_;
  cp.last_phase = last_phase_;
  cp.budget_cycles = budget_cycles_;
  cp.noise = noise_;
  cp.deadline = deadline_;
  cp.states.resize(model_->state_count());
  model_->snapshot_states(lane_, cp.states.data());
  cp.pipe_regs.resize(model_->pipe_reg_count());
  model_->snapshot_pipe_regs(lane_, cp.pipe_regs.data());
  return cp;
}

void TurnLoop::restore(const Checkpoint& cp) {
  CITL_CHECK_MSG(model_ != nullptr, "no model attached");
  CITL_CHECK_MSG(!turn_open_, "restore() inside an open turn");
  CITL_CHECK_MSG(injector_ == nullptr && supervisor_ == nullptr,
                 "restore() with fault injection or supervision: their "
                 "internal state is not part of the image");
  CITL_CHECK_MSG(cp.states.size() == model_->state_count() &&
                     cp.pipe_regs.size() == model_->pipe_reg_count(),
                 "checkpoint image does not match the attached model");
  time_s_ = cp.time_s;
  turn_ = cp.turn;
  control_on_ = cp.control_on;
  ctrl_phase_rad_ = cp.ctrl_phase_rad;
  correction_hz_ = cp.correction_hz;
  last_phase_ = cp.last_phase;
  budget_cycles_ = cp.budget_cycles;
  controller_ = cp.controller;
  decimator_ = cp.decimator;
  noise_ = cp.noise;
  deadline_ = cp.deadline;
  model_->restore_states(lane_, cp.states.data());
  model_->restore_pipe_regs(lane_, cp.pipe_regs.data());
}

void TurnLoop::begin_turn() {
  CITL_CHECK_MSG(model_ != nullptr, "no model attached");
  CITL_CHECK_MSG(!turn_open_, "begin_turn() without finish_turn()");
  if (injector_ != nullptr) injector_->begin_tick(turn_);
  // Present this revolution's inputs.
  double period = t_ref_s_;
  if (config_.quantise_period) {
    // The hardware's period detector counts capture-clock ticks between
    // crossings and averages four of them; at a constant input frequency the
    // average equals the rounded single period.
    const double fs = config_.kernel.sample_rate_hz;
    period = std::round(period * fs) / fs;
  }
  // Fault seam + watchdog: a reference dropout turns the measurement into
  // NaN; the supervisor holds the last valid period so the loop keeps
  // producing a beam signal (an unsupervised loop lets the NaN through).
  if (injector_ != nullptr) period = injector_->filter_period_s(period);
  if (supervisor_ != nullptr) period = supervisor_->filter_period(period);
  bus_->measured_period_s = period;
  bus_->gap_phase_rad = gap_phase_rad();
  if (config_.synthesize_waveform) {
    // The host updates the waveform parameters each revolution, the same
    // role the SpartanMC parameter interface plays for the sampled kernel's
    // voltage scaling.
    model_->set_param(h_v_hat_, config_.gap_voltage_v, lane_);
    model_->set_param(h_gap_phase_, bus_->gap_phase_rad, lane_);
  }
  // Real-time budget for this revolution: the schedule must complete within
  // the measured period at the CGRA clock (§IV-B).
  budget_cycles_ = period * kernel_->arch.clock_hz;
  turn_open_ = true;
}

TurnRecord TurnLoop::finish_turn(unsigned exec_cycles) {
  CITL_CHECK_MSG(turn_open_, "finish_turn() without begin_turn()");
  turn_open_ = false;

  if (injector_ != nullptr) exec_cycles += injector_->stall_cycles();
  // One comparison decides a miss: the profiler's count is the loop's
  // violation count, and every miss it counts is a recorder event.
  const bool missed = deadline_.record(static_cast<double>(exec_cycles),
                                       budget_cycles_, time_s_);
  // Registry-side occupancy histogram: the DeadlineProfiler keeps the exact
  // per-loop distribution, but scrape endpoints render the global registry,
  // so mirror exec/budget there too (no-op while the registry is disabled).
  static obs::Histogram& obs_occupancy = obs::Registry::global().histogram(
      "hil.deadline.occupancy",
      {0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0});
  if (budget_cycles_ > 0.0) {
    obs_occupancy.observe(static_cast<double>(exec_cycles) / budget_cycles_);
  }
  DeadlinePolicy action = DeadlinePolicy::kObserve;
  if (missed) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kDeadlineMiss, turn_, time_s_,
        static_cast<double>(exec_cycles), budget_cycles_);
    if (supervisor_ != nullptr) action = supervisor_->on_deadline_overrun();
  }

  // Injected state faults land after the iteration (an SEU strikes between
  // revolutions); the supervisor's reactive pass runs before the record is
  // read so a rolled-back turn reports the restored states.
  if (injector_ != nullptr) injector_->apply_state_faults(*model_, lane_);
  if (supervisor_ != nullptr) supervisor_->end_turn();

  // Phase measurement on the generated beam signal (bunch 0). The plotted
  // quantity (Fig. 5) is the phase between beam and *reference* signal;
  // the controlled quantity is the phase between beam and *gap* signal —
  // the bunch position inside its bucket (Klingbeil 2007). Feedback on
  // the latter yields a plain damped second-order loop.
  double phase;
  bool feed_control = true;
  if (action == DeadlinePolicy::kSkipTurn) {
    // The revolution's outputs are dropped: hold the measurement, freeze
    // the control chain for one turn.
    phase = last_phase_;
    feed_control = false;
  } else if (action == DeadlinePolicy::kHoldOutputs ||
             action == DeadlinePolicy::kAbort) {
    phase = last_phase_;
  } else {
    phase = wrap_angle(bus_->arrivals[0] * omega_gap_);
    if (config_.phase_noise_rad > 0.0) {
      phase += noise_.gaussian(0.0, config_.phase_noise_rad);
    }
    if (!std::isfinite(phase)) {
      // Output guard: never let a corrupted kernel output reach the
      // controller. Unsupervised loops keep the historical behavior (the
      // NaN propagates — that is the failure mode the guard exists for).
      if (supervisor_ != nullptr) {
        supervisor_->note_nonfinite_output();
        phase = last_phase_;
      }
    }
  }
  last_phase_ = phase;
  const double bucket_phase = wrap_angle(phase + bus_->gap_phase_rad);

  // Closed-loop control at the decimated rate.
  if (feed_control && decimator_.feed(bucket_phase)) {
    correction_hz_ = control_on_ ? controller_.update(decimator_.output())
                                 : 0.0;
  }
  if (control_on_) {
    // The gap DDS integrates the frequency correction into phase.
    ctrl_phase_rad_ += kTwoPi * correction_hz_ * t_ref_s_;
  }

  // Decimated heartbeat: a bounded ring holding every turn of a long run
  // would retain only the tail, so keep one summary per kSummaryInterval
  // turns and let the always-recorded misses/faults carry the detail.
  constexpr std::int64_t kSummaryInterval = 256;
  if (turn_ % kSummaryInterval == 0) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kTurnSummary, turn_, time_s_, phase,
        static_cast<double>(exec_cycles));
  }

  time_s_ += t_ref_s_;
  ++turn_;

  return TurnRecord{time_s_,
                    phase,
                    model_->state(h_dt0_, lane_),
                    model_->state(h_dgamma0_, lane_),
                    correction_hz_,
                    bus_->gap_phase_rad};
}

TurnRecord TurnLoop::step() {
  begin_turn();
  unsigned exec_cycles;
  if (config_.cycle_accurate) {
    CITL_CHECK_MSG(machine_ != nullptr,
                   "cycle-accurate stepping needs the owned machine");
    exec_cycles = machine_->run_iteration_cycle_accurate();
  } else {
    // Owned machines have one lane; a multi-lane attached model must be
    // driven through begin_turn()/finish_turn() by its batch driver instead.
    CITL_CHECK_MSG(model_->lanes() == 1,
                   "step() would iterate every lane of a shared model");
    exec_cycles = model_->run_iteration_all_lanes();
  }
  return finish_turn(exec_cycles);
}

void TurnLoop::run(std::int64_t turns,
                   const std::function<void(const TurnRecord&)>& cb) {
  for (std::int64_t i = 0; i < turns && !aborted(); ++i) {
    const TurnRecord r = step();
    if (cb) cb(r);
  }
}

}  // namespace citl::hil
