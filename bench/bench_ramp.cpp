// X-ramp — the paper's ongoing work (§VI): "the ramp-up case, which
// simulates the bunches after injection into the ring ... the challenge is
// to emulate the acceleration phase with variable RF frequencies and
// amplitudes."
//
// We run an acceleration ramp with the two-particle tracker driven by an
// RfProgramme (amplitude + synchronous-phase ramps) and show:
//   * the reference energy climbs and the revolution frequency sweeps,
//   * a displaced bunch stays captured during the ramp (adiabaticity),
//   * the synchrotron frequency tracks the changing working point.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/units.hpp"
#include "hil/ramploop.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "phys/relativity.hpp"
#include "phys/rf.hpp"
#include "phys/synchrotron.hpp"
#include "phys/tracker.hpp"

using namespace citl;

namespace {

struct RampSetup {
  phys::Ion ion = phys::ion_n14_7plus();
  phys::Ring ring = phys::sis18(4);
  double f_inject_hz = 214.0e3;  // injection: long revolution times (§VI)
  double ramp_s = 0.25;
  phys::RfProgramme programme =
      phys::RfProgramme::linear_ramp(4000.0, 16000.0, deg_to_rad(20.0), 0.25);
};

void print_study() {
  const RampSetup s;
  const double gamma0 = phys::gamma_from_revolution_frequency(
      s.f_inject_hz, s.ring.circumference_m);
  phys::TwoParticleTracker t(s.ion, s.ring, gamma0);
  t.displace(0.0, 20.0e-9);  // injected slightly off the bucket centre

  std::printf("X-ramp — acceleration from f_R = %.0f kHz, V̂ %.1f→%.1f kV, "
              "φ_s 0→%.0f° over %.0f ms (%s)\n\n",
              s.f_inject_hz / 1e3, 4.0, 16.0, 20.0, s.ramp_s * 1e3,
              s.ion.name.c_str());

  std::vector<double> ts, fr, ke, amp_ratio;
  double time = 0.0;
  double max_dt_frac = 0.0;
  io::Table table({"t [ms]", "f_R [kHz]", "E_kin [MeV/u]", "f_s [Hz]",
                   "|Δt|/bucket"});
  double next_report = 0.0;
  while (time < s.ramp_s * 1.2) {
    const double vhat = s.programme.amplitude_v(time);
    const double phi_s = s.programme.sync_phase_rad(time);
    const double t_rev = t.revolution_time_s();
    const double omega_rf = kTwoPi * s.ring.harmonic / t_rev;
    const double v_sync = vhat * std::sin(phi_s);
    // Gap voltage around the synchronous phase; reference particle rides at
    // phi_s, the asynchronous one at phi_s + omega_rf*dt.
    t.step(phys::GapVoltages{
        v_sync, vhat * std::sin(phi_s + omega_rf * t.dt_s())});
    time += t_rev;

    const double bucket_half_s = 0.5 * t_rev / s.ring.harmonic;
    max_dt_frac = std::max(max_dt_frac, std::abs(t.dt_s()) / bucket_half_s);
    if (time >= next_report) {
      next_report += s.ramp_s / 8.0;
      const double fs_now = phys::synchrotron_frequency_hz(
          s.ion, s.ring, t.gamma_r(), vhat, phi_s);
      table.add_row(
          {io::Table::num(time * 1e3),
           io::Table::num(1.0 / t_rev / 1e3),
           io::Table::num(phys::kinetic_energy_ev(t.gamma_r(), s.ion.mass_ev) /
                          14.003 / 1e6),
           io::Table::num(fs_now),
           io::Table::num(std::abs(t.dt_s()) / bucket_half_s)});
      ts.push_back(time * 1e3);
      fr.push_back(1.0 / t_rev / 1e3);
      ke.push_back(phys::kinetic_energy_ev(t.gamma_r(), s.ion.mass_ev) / 1e6);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              io::ascii_plot(ts, fr,
                             {.width = 100,
                              .height = 14,
                              .title = "revolution frequency [kHz] during the "
                                       "ramp",
                              .y_label = {},
                              .x_label = "t [ms]"})
                  .c_str());
  std::printf("bunch stayed captured: max |Δt|/bucket-half = %.3f (< 1)\n",
              max_dt_frac);
  std::printf("energy gained: γ %.5f → %.5f\n\n",
              phys::gamma_from_revolution_frequency(s.f_inject_hz, 216.72),
              t.gamma_r());
}

void print_hil_ramp() {
  // The actual §VI system: the compiled CGRA ramp kernel in the loop, with
  // the reference energy re-derived from the period detector every turn.
  hil::RampLoopConfig cfg;
  cfg.kernel.pipelined = false;  // see EXPERIMENTS.md: staleness anti-damping
  cfg.f_start_hz = 214.0e3;
  cfg.f_end_hz = 500.0e3;
  cfg.ramp_s = 60.0e-3;
  cfg.programme = phys::RfProgramme::linear_ramp(8000.0, 16000.0, 0.0, 60.0e-3);
  hil::RampLoop loop(cfg);
  loop.displace(0.0, 25.0e-9);  // injection error

  std::printf("X-ramp (HIL): CGRA ramp kernel in the loop, %u-tick schedule, "
              "f_R 214→500 kHz over 60 ms, 25 ns injection error\n\n",
              loop.kernel().schedule.length);
  io::Table t({"t [ms]", "f_R [kHz]", "φ_s [deg]", "|Δt| envelope [ns]",
               "bucket fill"});
  double env = 0.0, fill = 0.0;
  double next_row = 6.0e-3;
  while (!loop.ramp_done()) {
    const hil::RampRecord r = loop.step();
    env = std::max(env, std::abs(r.dt_s));
    fill = std::max(fill, r.bucket_fill);
    if (loop.time_s() >= next_row) {
      t.add_row({io::Table::num(r.time_s * 1e3),
                 io::Table::num(r.f_ref_hz / 1e3),
                 io::Table::num(rad_to_deg(r.sync_phase_rad)),
                 io::Table::num(env * 1e9), io::Table::num(fill)});
      env = fill = 0.0;
      next_row += 6.0e-3;
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("(envelope shrinks along the ramp — adiabatic damping; the "
              "bunch never leaves the running bucket)\n\n");
}

void BM_RampLoopTurn(benchmark::State& state) {
  hil::RampLoopConfig cfg;
  cfg.kernel.pipelined = false;
  cfg.f_start_hz = 214.0e3;
  cfg.f_end_hz = 500.0e3;
  cfg.ramp_s = 1.0e3;  // effectively endless for steady-state timing
  cfg.programme = phys::RfProgramme::linear_ramp(8000.0, 16000.0, 0.0, 1.0e3);
  hil::RampLoop loop(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step().dt_s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RampLoopTurn);

void BM_RampTrackingTurn(benchmark::State& state) {
  const RampSetup s;
  const double gamma0 = phys::gamma_from_revolution_frequency(
      s.f_inject_hz, s.ring.circumference_m);
  phys::TwoParticleTracker t(s.ion, s.ring, gamma0);
  t.displace(0.0, 10.0e-9);
  double time = 0.0;
  for (auto _ : state) {
    const double vhat = s.programme.amplitude_v(time);
    const double phi_s = s.programme.sync_phase_rad(time);
    const double t_rev = t.revolution_time_s();
    const double omega_rf = kTwoPi * s.ring.harmonic / t_rev;
    t.step(phys::GapVoltages{vhat * std::sin(phi_s),
                             vhat * std::sin(phi_s + omega_rf * t.dt_s())});
    time += t_rev;
    benchmark::DoNotOptimize(t.gamma_r());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RampTrackingTurn);

}  // namespace

int main(int argc, char** argv) {
  print_study();
  print_hil_ramp();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
