#include "hil/experiment.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/units.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::hil {

namespace {

/// Gap amplitude realising the configured synchrotron frequency at the
/// configured working point (the paper "adjusted the input voltage
/// amplitude" to do exactly this, §V).
double derive_gap_amplitude(const MdeScenarioConfig& cfg) {
  const double gamma = phys::gamma_from_revolution_frequency(
      cfg.f_ref_hz, cfg.ring.circumference_m);
  return phys::amplitude_for_synchrotron_frequency(cfg.ion, cfg.ring, gamma,
                                                   cfg.f_sync_hz);
}

TurnLoopConfig make_turnloop_config(const MdeScenarioConfig& cfg) {
  TurnLoopConfig tl;
  tl.kernel.ion = cfg.ion;
  tl.kernel.ring = cfg.ring;
  tl.kernel.n_bunches = 1;
  tl.kernel.pipelined = cfg.pipelined_kernel;
  tl.f_ref_hz = cfg.f_ref_hz;
  tl.gap_voltage_v = derive_gap_amplitude(cfg);
  tl.control_enabled = cfg.control_enabled;
  tl.controller = cfg.controller;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(cfg.jump_deg),
                                      cfg.jump_interval_s,
                                      cfg.jump_interval_s / 5.0);
  return tl;
}

}  // namespace

PhaseSeries run_mde_simulator(const MdeScenarioConfig& cfg) {
  TurnLoop loop(make_turnloop_config(cfg));
  const auto turns =
      static_cast<std::int64_t>(cfg.duration_s * cfg.f_ref_hz);
  PhaseSeries out;
  out.time_s.reserve(static_cast<std::size_t>(turns) /
                     cfg.record_every_turns + 1);
  out.phase_deg.reserve(out.time_s.capacity());
  std::int64_t n = 0;
  loop.run(turns, [&](const TurnRecord& r) {
    if (n++ % static_cast<std::int64_t>(cfg.record_every_turns) == 0) {
      out.time_s.push_back(r.time_s);
      out.phase_deg.push_back(rad_to_deg(r.phase_rad));
    }
  });
  return out;
}

EnsembleSeries run_ensemble_reference(const LoopConfig& loop,
                                      std::size_t particles, double sigma_dt_s,
                                      std::uint64_t seed, std::int64_t turns,
                                      std::int64_t record_every) {
  const phys::Ring& ring = loop.kernel.ring;
  const double gamma0 = phys::gamma_from_revolution_frequency(
      loop.f_ref_hz, ring.circumference_m);
  const double t_rev = 1.0 / loop.f_ref_hz;
  const double omega_gap =
      kTwoPi * loop.f_ref_hz * static_cast<double>(ring.harmonic);

  phys::EnsembleConfig ec;
  ec.ion = loop.kernel.ion;
  ec.ring = ring;
  ec.initial_gamma_r = gamma0;
  ec.n_particles = particles;
  ec.seed = seed;
  phys::EnsembleTracker ensemble(ec);  // serial: deterministic per seed
  const double matched_ratio = phys::matched_dt_per_dgamma_s(
      ec.ion, ec.ring, gamma0, loop.gap_voltage_v);
  ensemble.populate_gaussian(sigma_dt_s / matched_ratio, sigma_dt_s);

  ctrl::BeamPhaseController controller(loop.controller);
  ctrl::PhaseDecimator decimator(static_cast<std::size_t>(
      std::lround(loop.f_ref_hz / loop.controller.sample_rate_hz)));

  EnsembleSeries out;
  out.time_s.reserve(static_cast<std::size_t>(turns / record_every) + 1);
  out.phase_rad.reserve(out.time_s.capacity());
  double t = 0.0;
  double ctrl_phase = 0.0;
  double correction_hz = 0.0;
  for (std::int64_t n = 0; n < turns; ++n) {
    const double jump = loop.jumps ? loop.jumps->phase_rad(t) : 0.0;
    const double gap_phase = jump + ctrl_phase;
    ensemble.step(
        phys::SineWaveform{loop.gap_voltage_v, omega_gap, gap_phase});

    // The pickup + DSP measures the bunch centroid phase; the recorded series
    // is relative to the reference, the controlled one relative to the gap
    // signal (the bucket position), as in the HIL loop.
    const double phase = wrap_angle(ensemble.centroid_dt_s() * omega_gap);
    if (decimator.feed(wrap_angle(phase + gap_phase))) {
      correction_hz =
          loop.control_enabled ? controller.update(decimator.output()) : 0.0;
    }
    if (loop.control_enabled) ctrl_phase += kTwoPi * correction_hz * t_rev;
    t += t_rev;
    if (n % record_every == 0) {
      out.time_s.push_back(t);
      out.phase_rad.push_back(phase);
    }
  }
  return out;
}

PhaseSeries run_mde_reference(const MdeScenarioConfig& cfg) {
  EnsembleSeries series = run_ensemble_reference(
      make_turnloop_config(cfg), cfg.ensemble_particles,
      cfg.ensemble_sigma_dt_s, cfg.seed,
      static_cast<std::int64_t>(cfg.duration_s * cfg.f_ref_hz),
      static_cast<std::int64_t>(cfg.record_every_turns));
  for (double& phase : series.phase_rad) phase = rad_to_deg(phase);
  return {std::move(series.time_s), std::move(series.phase_rad)};
}

namespace {

/// Metrics for one series around the first jump.
struct JumpMetrics {
  double f_sync_hz;
  double p2p_over_jump;
  double damping_ratio;
};

JumpMetrics analyse(const PhaseSeries& s, const MdeScenarioConfig& cfg) {
  const double t_jump = cfg.jump_interval_s / 5.0;  // first toggle
  const double t_sync = 1.0 / cfg.f_sync_hz;
  JumpMetrics m{};
  // Frequency estimated over the first few synchrotron periods after the
  // jump, while the oscillation is still strong.
  m.f_sync_hz = estimate_oscillation_frequency_hz(
      s.time_s, s.phase_deg, t_jump + 0.2e-3, t_jump + 6.0 * t_sync);
  // First swing: within the first synchrotron period after the jump.
  const double p2p =
      peak_to_peak(s.time_s, s.phase_deg, t_jump, t_jump + 1.2 * t_sync);
  m.p2p_over_jump = p2p / cfg.jump_deg;
  // Residual oscillation just before the next toggle, relative to the first
  // swing — the damping figure of merit.
  const double tail_begin = cfg.jump_interval_s + t_jump - 4.0 * t_sync;
  const double tail_end = cfg.jump_interval_s + t_jump - 0.2e-3;
  const double residual = peak_to_peak(s.time_s, s.phase_deg, tail_begin,
                                       tail_end);
  m.damping_ratio = p2p > 0.0 ? residual / p2p : 0.0;
  return m;
}

}  // namespace

MdeResult run_mde_scenario(const MdeScenarioConfig& cfg) {
  MdeResult r;
  r.gap_amplitude_v = derive_gap_amplitude(cfg);
  const double gamma = phys::gamma_from_revolution_frequency(
      cfg.f_ref_hz, cfg.ring.circumference_m);
  r.f_sync_analytic_hz = phys::synchrotron_frequency_hz(
      cfg.ion, cfg.ring, gamma, r.gap_amplitude_v);

  r.simulator = run_mde_simulator(cfg);
  r.reference = run_mde_reference(cfg);

  const JumpMetrics ms = analyse(r.simulator, cfg);
  const JumpMetrics mr = analyse(r.reference, cfg);
  r.f_sync_simulator_hz = ms.f_sync_hz;
  r.f_sync_reference_hz = mr.f_sync_hz;
  r.first_p2p_over_jump_sim = ms.p2p_over_jump;
  r.first_p2p_over_jump_ref = mr.p2p_over_jump;
  r.damping_ratio_sim = ms.damping_ratio;
  r.damping_ratio_ref = mr.damping_ratio;
  return r;
}

double estimate_oscillation_frequency_hz(std::span<const double> time_s,
                                         std::span<const double> x,
                                         double t_begin, double t_end) {
  CITL_CHECK(time_s.size() == x.size());
  // Collect the window and its mean.
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (time_s[i] < t_begin || time_s[i] >= t_end) continue;
    sum += x[i];
    ++count;
  }
  if (count < 4) return 0.0;
  const double mean = sum / static_cast<double>(count);

  // Count mean crossings (both directions); frequency = crossings / 2 / span.
  double first_cross = 0.0, last_cross = 0.0;
  std::size_t crossings = 0;
  bool have_prev = false;
  double prev_t = 0.0, prev_v = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (time_s[i] < t_begin || time_s[i] >= t_end) continue;
    const double v = x[i] - mean;
    if (have_prev && ((prev_v < 0.0 && v >= 0.0) || (prev_v > 0.0 && v <= 0.0))) {
      const double denom = v - prev_v;
      const double tc = denom != 0.0
                            ? prev_t + (time_s[i] - prev_t) * (-prev_v / denom)
                            : time_s[i];
      if (crossings == 0) first_cross = tc;
      last_cross = tc;
      ++crossings;
    }
    prev_t = time_s[i];
    prev_v = v;
    have_prev = true;
  }
  if (crossings < 2) return 0.0;
  const double half_periods = static_cast<double>(crossings - 1);
  return half_periods / (2.0 * (last_cross - first_cross));
}

double peak_to_peak(std::span<const double> time_s, std::span<const double> x,
                    double t_begin, double t_end) {
  CITL_CHECK(time_s.size() == x.size());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (time_s[i] < t_begin || time_s[i] >= t_end) continue;
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  return hi > lo ? hi - lo : 0.0;
}

double mean_in_window(std::span<const double> time_s, std::span<const double> x,
                      double t_begin, double t_end) {
  CITL_CHECK(time_s.size() == x.size());
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (time_s[i] < t_begin || time_s[i] >= t_end) continue;
    sum += x[i];
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace citl::hil
