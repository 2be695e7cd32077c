#include "hil/framework.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "phys/relativity.hpp"

namespace citl::hil {

/// Sensor bus backed by the framework's capture buffers and pulse timer.
class Framework::FrameworkBus final : public cgra::SensorBus {
 public:
  explicit FrameworkBus(Framework& fw) : fw_(fw) {}

  double read(cgra::SensorRegion region, double offset) override {
    switch (region) {
      case cgra::SensorRegion::kPeriod:
        // The revolution's working period, latched (and watchdog-filtered)
        // by run_cgra() before the kernel executes — identical to reading
        // the detector directly on the healthy path.
        return offset < 0.5 ? fw_.current_period_s_
                            : 1.0 / fw_.current_period_s_;
      case cgra::SensorRegion::kRefBuf:
        return buffered_read(fw_.ref_buf_, offset);
      case cgra::SensorRegion::kGapBuf:
        return buffered_read(fw_.gap_buf_, offset);
      default:
        CITL_CHECK_MSG(false, "read from a write-only sensor region");
        return 0.0;
    }
  }

  void write(cgra::SensorRegion region, double offset, double value) override {
    switch (region) {
      case cgra::SensorRegion::kActuator: {
        // `value` is the bunch's arrival time relative to the zero crossing
        // [s]; arm the Gauss pulse for the *next* passage (§III-B).
        const auto bunch = static_cast<int>(offset + 0.5);
        if (fw_.supervisor_ != nullptr && !std::isfinite(value)) {
          // Output guard: a corrupted kernel must not take the beam signal
          // down — substitute the bunch's last good arrival.
          fw_.supervisor_->note_nonfinite_output();
          const auto b = static_cast<std::size_t>(bunch);
          if (b < fw_.last_arrivals_.size() && fw_.arrival_seen_[b]) {
            value = fw_.last_arrivals_[b];
          } else {
            return;  // no good value yet: drop the pulse, keep running
          }
        }
        if (const auto b = static_cast<std::size_t>(bunch);
            b < fw_.last_arrivals_.size()) {
          fw_.last_arrivals_[b] = value;
          fw_.arrival_seen_[b] = true;
        }
        const double fs = kSampleClock.frequency_hz();
        const double period_ticks = fw_.period_det_.period_ticks();
        const double bucket_ticks =
            period_ticks / static_cast<double>(fw_.config_.kernel.ring.harmonic);
        const double center = fw_.last_crossing_tick_ + period_ticks +
                              value * fs +
                              static_cast<double>(bunch) * bucket_ticks;
        fw_.pulse_gen_.schedule(center);
        return;
      }
      case cgra::SensorRegion::kMonitor:
        monitor_value = value;
        return;
      default:
        CITL_CHECK_MSG(false, "write to a read-only sensor region");
    }
  }

  double monitor_value = 0.0;

 private:
  /// Reads relative to the *previous* zero crossing so that even late
  /// arrivals (positive offsets) lie in already-captured history — this is
  /// why the paper's buffers hold two full reference cycles.
  [[nodiscard]] double buffered_read(const sig::CaptureBuffer& buf,
                                     double offset) const {
    const double base = std::floor(fw_.prev_crossing_tick_);
    const Tick t = static_cast<Tick>(base) + static_cast<Tick>(offset);
    if (!buf.retained(t)) return 0.0;  // before capture started
    return buf.read(t);
  }

  Framework& fw_;
};

namespace {

/// Decorrelates the per-channel ADC noise streams across sweep scenarios
/// while keeping the historical seeds (11, 12) for noise_seed = 0.
std::uint64_t adc_seed(std::uint64_t channel, std::uint64_t noise_seed) {
  return channel ^ (noise_seed * 0x9e3779b97f4a7c15ull);
}

}  // namespace

cgra::BeamKernelConfig Framework::effective_kernel_config(
    const FrameworkConfig& config) {
  cgra::BeamKernelConfig kc = config.kernel;
  kc.gamma0 = phys::gamma_from_revolution_frequency(
      config.f_ref_hz, kc.ring.circumference_m);
  kc.v_scale = config.gap_voltage_v / config.gap_amplitude_v;
  return kc;
}

Framework::Framework(const FrameworkConfig& config)
    : Framework(config,
                std::make_shared<const cgra::CompiledKernel>(
                    cgra::compile_kernel(
                        cgra::beam_kernel_source(effective_kernel_config(config)),
                        config.arch, "beam_sampled"))) {}

Framework::Framework(const FrameworkConfig& config,
                     std::shared_ptr<const cgra::CompiledKernel> kernel)
    : config_(config),
      kernel_(std::move(kernel)),
      ref_dds_(kSampleClock, config.f_ref_hz, config.ref_amplitude_v),
      gap_dds_(kSampleClock,
               config.f_ref_hz *
                   static_cast<double>(config.kernel.ring.harmonic),
               config.gap_amplitude_v),
      gap2_dds_(kSampleClock,
                2.0 * config.f_ref_hz *
                    static_cast<double>(config.kernel.ring.harmonic),
                config.gap_amplitude_v * std::abs(config.gap_h2_ratio)),
      adc_ref_(sig::Adc::fmc151(config.adc_noise_rms_v,
                                adc_seed(11, config.noise_seed))),
      adc_gap_(sig::Adc::fmc151(config.adc_noise_rms_v,
                                adc_seed(12, config.noise_seed))),
      dac_beam_(sig::Dac::fmc151()),
      dac_monitor_(sig::Dac::fmc151()),
      ref_buf_(config.buffer_depth_log2),
      gap_buf_(config.buffer_depth_log2),
      // Comparator hysteresis: a tenth of the expected amplitude, with a
      // 10 mV floor so a dead/weak reference cannot chatter the detector.
      zero_cross_(std::max(config.ref_amplitude_v * 0.1, 0.01)),
      period_det_(4),
      pulse_gen_(sig::GaussPulseShape(
          config.pulse_sigma_s * kSampleClock.frequency_hz(),
          config.pulse_amplitude_v)),
      phase_det_(kSampleClock, config.detector_threshold_v,
                 config.kernel.ring.harmonic),
      iq_det_(kSampleClock, config.kernel.ring.harmonic,
              config.iq_averaging_revolutions),
      controller_(config.controller),
      decimator_(static_cast<std::size_t>(
          std::lround(config.f_ref_hz / config.controller.sample_rate_hz))),
      phase_trace_("phase_rad", 1, 1u << 20),
      correction_trace_("correction_hz", 1, 1u << 20),
      beam_trace_("beam_v", 1, 1u << 20) {
  CITL_CHECK_MSG(kernel_ != nullptr, "Framework needs a compiled kernel");
  bus_ = std::make_unique<FrameworkBus>(*this);
  machine_ = std::make_unique<cgra::BatchedCgraMachine>(
      *kernel_, *bus_, cgra::Precision::kFloat32, config.exec_tier);
  exec_model_ = machine_.get();
  control_on_ = config.control_enabled;
  last_phase_ = std::numeric_limits<double>::quiet_NaN();

  const auto n_bunches =
      static_cast<std::size_t>(std::max(config.kernel.n_bunches, 1));
  last_arrivals_.assign(n_bunches, 0.0);
  arrival_seen_.assign(n_bunches, false);

  if (!config.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config.faults, config.noise_seed,
        fault::FaultInjector::Host::kSampleAccurate);
    injector_->resolve_targets(*kernel_);
    injector_->validate_param_targets(
        [this](const std::string& target) { return params_.has(target); });
  }
  if (config.supervisor.enabled) {
    supervisor_ = std::make_unique<Supervisor>(config.supervisor);
    supervisor_->attach_model(*machine_, 0);
    supervisor_->attach_params(params_);
  }

  obs::Registry& reg = obs::Registry::global();
  obs_revolutions_ = &reg.counter("hil.revolutions");
  obs_phase_samples_ = &reg.counter("hil.phase_samples");
  obs_corrections_ = &reg.counter("hil.controller_corrections");
  obs_deadline_misses_ = &reg.counter("hil.deadline_misses");

  record_enable_ = params_.handle("record_enable");
  beam_pulse_scale_ = params_.handle("beam_pulse_scale");
  monitor_source_ = params_.handle("monitor_source");
}

Framework::~Framework() = default;

double Framework::time_s() const noexcept { return kSampleClock.to_seconds(now_); }

void Framework::set_pulse_shape(double sigma_s, double amplitude_v) {
  pulse_gen_.set_shape(sig::GaussPulseShape(
      sigma_s * kSampleClock.frequency_hz(), amplitude_v));
}

void Framework::account_cgra_run(unsigned exec_cycles, double budget_cycles,
                                 double when_s) {
  ++cgra_runs_;
  obs_revolutions_->add();
  // Hard real-time check (§IV-B): the schedule must complete within one
  // reference period at the CGRA clock. The boolean violation counter and
  // the profiler share one comparison so they can never disagree.
  deadline_.record(static_cast<double>(exec_cycles), budget_cycles, when_s);
  // Mirror of TurnLoop::finish_turn: scrape endpoints read the registry, so
  // the occupancy distribution has to live there as well as in the profiler.
  static obs::Histogram& obs_occupancy = obs::Registry::global().histogram(
      "hil.deadline.occupancy",
      {0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0});
  if (budget_cycles > 0.0) {
    obs_occupancy.observe(static_cast<double>(exec_cycles) / budget_cycles);
  }
  if (static_cast<double>(exec_cycles) > budget_cycles) {
    ++realtime_violations_;
    obs_deadline_misses_->add();
    obs::FlightRecorder::global().record(
        obs::EventKind::kDeadlineMiss, cgra_runs_ - 1, when_s,
        static_cast<double>(exec_cycles), budget_cycles);
  }
  // Decimated heartbeat for the flight recorder (same interval as the
  // turn-level loop; see TurnLoop::finish_turn).
  constexpr std::int64_t kSummaryInterval = 256;
  if ((cgra_runs_ - 1) % kSummaryInterval == 0) {
    obs::FlightRecorder::global().record(
        obs::EventKind::kTurnSummary, cgra_runs_ - 1, when_s, 0.0,
        static_cast<double>(exec_cycles));
  }
}

void Framework::post_turn() {
  if (injector_ != nullptr && exec_model_ != nullptr) {
    injector_->apply_state_faults(*exec_model_, exec_lane_);
  }
  if (supervisor_ != nullptr) supervisor_->end_turn();
}

void Framework::run_cgra() {
  const double raw_period_s = period_det_.period_seconds(kSampleClock);
  current_period_s_ = supervisor_ != nullptr
                          ? supervisor_->filter_period(raw_period_s)
                          : raw_period_s;
  const double budget_cycles = current_period_s_ * kernel_->arch.clock_hz;
  const unsigned stall =
      injector_ != nullptr ? injector_->stall_cycles() : 0;

  if (supervisor_ != nullptr) {
    // Deadline policy: the planned execution (schedule plus injected stall)
    // is known before the revolution runs, exactly like the static schedule
    // analysis in hardware.
    const double planned =
        static_cast<double>(kernel_->schedule.length) + stall;
    if (planned > budget_cycles) {
      switch (supervisor_->on_deadline_overrun()) {
        case DeadlinePolicy::kObserve:
          break;  // legacy behavior: count it, run anyway
        case DeadlinePolicy::kSkipTurn:
        case DeadlinePolicy::kAbort:
          account_cgra_run(static_cast<unsigned>(planned), budget_cycles,
                           time_s());
          post_turn();
          return;
        case DeadlinePolicy::kHoldOutputs:
          replay_actuator_writes();
          account_cgra_run(static_cast<unsigned>(planned), budget_cycles,
                           time_s());
          post_turn();
          return;
      }
    }
  }

  if (cgra_deferred_) {
    // Batched mode: park the request. Budget and timestamp are captured now
    // so complete_cgra_run() accounts exactly what the owned path would.
    CITL_CHECK_MSG(!cgra_pending_,
                   "CGRA request already pending (driver missed a completion)");
    cgra_pending_ = true;
    pending_budget_cycles_ = budget_cycles;
    pending_time_s_ = time_s();
    pending_stall_cycles_ = stall;
    return;
  }
  CITL_TRACE_SPAN("hil.cgra_revolution");
  unsigned exec_cycles = kernel_->schedule.length;
  if (config_.cycle_accurate_cgra) {
    exec_cycles = machine_->run_iteration_cycle_accurate();
  } else {
    machine_->run_iteration();
  }
  account_cgra_run(exec_cycles + stall, budget_cycles, time_s());
  post_turn();
}

cgra::SensorBus& Framework::cgra_bus() noexcept { return *bus_; }

bool Framework::run_until_cgra_request(std::int64_t max_ticks) {
  CITL_CHECK_MSG(!cgra_pending_, "pending CGRA request not completed");
  for (std::int64_t i = 0; i < max_ticks && !cgra_pending_ && !aborted(); ++i) {
    tick();
  }
  return cgra_pending_;
}

void Framework::complete_cgra_run(unsigned exec_cycles) {
  CITL_CHECK_MSG(cgra_pending_, "no CGRA request to complete");
  cgra_pending_ = false;
  account_cgra_run(exec_cycles + pending_stall_cycles_,
                   pending_budget_cycles_, pending_time_s_);
  pending_stall_cycles_ = 0;
  post_turn();
}

void Framework::attach_cgra_model(cgra::BeamModel& model, std::size_t lane) {
  exec_model_ = &model;
  exec_lane_ = lane;
  if (supervisor_ != nullptr) supervisor_->attach_model(model, lane);
}

void Framework::replay_actuator_writes() {
  for (std::size_t b = 0; b < last_arrivals_.size(); ++b) {
    if (arrival_seen_[b]) {
      bus_->write(cgra::SensorRegion::kActuator, static_cast<double>(b),
                  last_arrivals_[b]);
    }
  }
}

void Framework::on_reference_crossing() {
  prev_crossing_tick_ = last_crossing_tick_;
  last_crossing_tick_ = zero_cross_.last_crossing_tick();
  period_det_.on_crossing(last_crossing_tick_);
  phase_det_.set_reference(last_crossing_tick_, period_det_.period_ticks());
  iq_det_.set_reference(last_crossing_tick_, period_det_.period_ticks());

  // §IV-B: wait for four full sine waves before the model starts.
  if (!initialised_) {
    initialised_ = period_det_.valid();
    return;
  }
  // The IQ demodulator delivers one phase reading per revolution.
  if (config_.detector == PhaseDetectorKind::kIqDemodulation &&
      iq_det_.locked()) {
    handle_phase_sample(ctrl::PhaseSample{time_s(), iq_det_.phase_rad()});
  }
  run_cgra();
}

void Framework::synthetic_reference_crossing() {
  // The reference died (no crossing for watchdog_timeout_periods): the beam
  // signal must never stop (§III), so the supervisor schedules revolutions
  // on the held period. The period detector is NOT fed — its average stays
  // pinned at the last measured value until real crossings return.
  supervisor_->note_reference_loss();
  prev_crossing_tick_ = last_crossing_tick_;
  last_crossing_tick_ += period_det_.period_ticks();
  phase_det_.set_reference(last_crossing_tick_, period_det_.period_ticks());
  iq_det_.set_reference(last_crossing_tick_, period_det_.period_ticks());
  run_cgra();
}

void Framework::handle_phase_sample(const ctrl::PhaseSample& sample) {
  last_phase_ = sample.phase_rad;
  obs_phase_samples_->add();
  if (ParameterBus::get(record_enable_) != 0.0) {
    phase_trace_.push(sample.time_s, sample.phase_rad);
  }
  // The controller acts on the bunch-vs-gap phase (bucket position); the
  // gap phase offset is the DSP's local knowledge of its own DDS setting.
  const double bucket_phase =
      wrap_angle(sample.phase_rad + gap_dds_.phase_offset_rad());
  if (decimator_.feed(bucket_phase)) {
    correction_hz_ =
        control_on_ ? controller_.update(decimator_.output()) : 0.0;
    obs_corrections_->add();
    correction_trace_.push(time_s(), correction_hz_);
  }
}

FrameworkOutputs Framework::tick() {
  // 0. Fault clock: open/close windows, apply parameter-register corruption.
  if (injector_ != nullptr) {
    injector_->begin_tick(static_cast<std::int64_t>(now_));
    for (const fault::FaultSpec* spec :
         injector_->active_param_corruptions()) {
      params_.set(spec->target, spec->value);
    }
  }

  // 1. Stimulus generation. The gap DDS phase port carries the AWG jump
  //    programme plus the integrated controller correction (Fig. 4).
  const double jump =
      config_.jumps ? config_.jumps->phase_rad(time_s()) : 0.0;
  gap_dds_.set_phase_offset(jump + ctrl_phase_rad_);
  double ref_v = ref_dds_.tick();
  double gap_v = gap_dds_.tick();
  if (config_.gap_h2_ratio != 0.0) {
    // The second cavity is phase-locked to the fundamental: a shift of θ at
    // h·f_ref corresponds to 2θ at 2h·f_ref (rigid waveform).
    gap2_dds_.set_phase_offset(2.0 * (jump + ctrl_phase_rad_) +
                               config_.gap_h2_phase_rad);
    gap_v += gap2_dds_.tick();
  }
  if (injector_ != nullptr) ref_v = injector_->filter_reference_v(ref_v);

  // 2. Acquisition: ADC -> capture buffers; detectors on the ref channel.
  // Codes pass through the fault filter between converter and fabric — the
  // seam a broken LVDS lane corrupts. sample() == sample_code() * LSB by
  // definition, so the healthy path is byte-identical.
  double ref_q;
  double gap_q;
  if (injector_ != nullptr) {
    const int ref_code = injector_->filter_adc_code(
        fault::FaultChannel::kReference, adc_ref_.sample_code(ref_v),
        adc_ref_.bits(), adc_ref_.min_code(), adc_ref_.max_code());
    const int gap_code = injector_->filter_adc_code(
        fault::FaultChannel::kGap, adc_gap_.sample_code(gap_v),
        adc_gap_.bits(), adc_gap_.min_code(), adc_gap_.max_code());
    ref_q = static_cast<double>(ref_code) * adc_ref_.lsb_v();
    gap_q = static_cast<double>(gap_code) * adc_gap_.lsb_v();
  } else {
    ref_q = adc_ref_.sample(ref_v);
    gap_q = adc_gap_.sample(gap_v);
  }
  ref_buf_.write(now_, ref_q);
  gap_buf_.write(now_, gap_q);
  if (zero_cross_.feed(now_, ref_q)) {
    on_reference_crossing();
  } else if (supervisor_ != nullptr && initialised_ && !cgra_pending_ &&
             period_det_.period_ticks() > 0.0 &&
             static_cast<double>(now_) - last_crossing_tick_ >
                 config_.supervisor.watchdog_timeout_periods *
                     period_det_.period_ticks()) {
    synthetic_reference_crossing();
  }

  // 3. Beam-signal synthesis.
  const double beam_raw = pulse_gen_.sample(now_);
  const double beam_v = dac_beam_.convert(beam_raw);

  // 4. External DSP: phase detection and the closed control loop.
  if (config_.detector == PhaseDetectorKind::kPulseCentroid) {
    if (const auto sample = phase_det_.feed_beam(now_, beam_v)) {
      handle_phase_sample(*sample);
    }
  } else {
    iq_det_.feed_beam(now_, beam_v);
    // Per-revolution samples are emitted at the reference crossing.
  }
  if (control_on_) {
    ctrl_phase_rad_ += kTwoPi * correction_hz_ * kSampleClock.period_s();
  }

  // 5. Monitoring output (§III-A): phase difference or beam mirror.
  const auto monitor_source = static_cast<MonitorSource>(
      static_cast<std::uint8_t>(ParameterBus::get(monitor_source_)));
  const double monitor_raw = monitor_source == MonitorSource::kPhaseDifference
                                 ? bus_->monitor_value
                                 : beam_raw;
  const double monitor_v = dac_monitor_.convert(
      monitor_raw * ParameterBus::get(beam_pulse_scale_));

  if (ParameterBus::get(record_enable_) != 0.0) {
    beam_trace_.push(time_s(), beam_v);
  }

  ++now_;
  return FrameworkOutputs{beam_v, monitor_v};
}

void Framework::run_ticks(std::int64_t ticks) {
  for (std::int64_t i = 0; i < ticks && !aborted(); ++i) tick();
}

void Framework::run_seconds(double seconds) {
  run_ticks(kSampleClock.to_ticks(seconds));
}

}  // namespace citl::hil
