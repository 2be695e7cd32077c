// Multi-bunch operation (§VI outlook: "extend the simulation to support
// multiple bunches circulating in the ring at the same time"), which the
// compiled kernel and the Gauss pulse path already support: h bunches per
// revolution, each with its own (Δγ, Δt) state and its own beam pulse.
//
// This example runs the sample-accurate framework with 4 bunches, perturbs
// them and shows the resulting pulse train and per-bunch phases.
//
// Usage: multibunch [n_bunches]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/units.hpp"
#include "hil/framework.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  const int n_bunches = argc > 1 ? std::atoi(argv[1]) : 4;

  hil::FrameworkConfig fc = examples::base_framework_config();
  fc.kernel.n_bunches = n_bunches;
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);

  hil::Framework fw(fc);
  std::printf("multibunch: %d bunches, schedule %u ticks (f_max %.2f MHz at "
              "the %.0f MHz CGRA clock)\n\n",
              n_bunches, fw.kernel().schedule.length,
              fw.kernel().schedule.max_revolution_frequency_hz(
                  fw.kernel().arch.clock_hz) /
                  1e6,
              fw.kernel().arch.clock_hz / 1e6);

  // Per-bunch state handles, resolved once against the compiled kernel.
  std::vector<cgra::StateHandle> h_dt(n_bunches), h_dgamma(n_bunches);
  for (int j = 0; j < n_bunches; ++j) {
    h_dt[j] = cgra::state_handle(fw.kernel(), "dt" + std::to_string(j));
    h_dgamma[j] =
        cgra::state_handle(fw.kernel(), "dgamma" + std::to_string(j));
  }

  // Let the loop settle, displace bunch states asymmetrically, run on.
  fw.run_seconds(1.0e-3);
  for (int j = 0; j < n_bunches; ++j) {
    fw.machine().set_state(h_dt[j], (j + 1) * 2.0e-9, 0);  // staggered
  }
  fw.run_seconds(1.0e-3);

  // Capture one revolution of the beam signal: n_bunches pulses.
  std::vector<double> t_us, beam;
  const int window = static_cast<int>(250.0e6 / fc.f_ref_hz);
  for (int i = 0; i < window; ++i) {
    t_us.push_back(kSampleClock.to_seconds(fw.now()) * 1e6);
    beam.push_back(fw.tick().beam_v);
  }
  std::printf("%s\n",
              io::ascii_plot(t_us, beam,
                             {.width = 110,
                              .height = 12,
                              .title = "one revolution of the beam signal: "
                                       "one Gauss pulse per bunch",
                              .x_label = "t [µs]"})
                  .c_str());

  // Run through the jump and report per-bunch states.
  fw.run_seconds(4.0e-3);
  io::Table t({"bunch", "Δt [ns]", "Δγ", "bucket phase [deg]"});
  const double omega_gap =
      kTwoPi * fc.f_ref_hz * fc.kernel.ring.harmonic;
  for (int j = 0; j < n_bunches; ++j) {
    const double dt = fw.machine().state(h_dt[j], 0);
    const double dg = fw.machine().state(h_dgamma[j], 0);
    t.add_row({std::to_string(j), io::Table::num(dt * 1e9),
               io::Table::num(dg), io::Table::num(rad_to_deg(dt * omega_gap))});
  }
  std::printf("per-bunch state after the 8° jump (all bunches converge to "
              "the new bucket):\n%s\n",
              t.render().c_str());
  std::printf("real-time violations: %lld (pipelined %d-bunch kernel %s "
              "800 kHz)\n",
              static_cast<long long>(fw.realtime_violations()), n_bunches,
              fw.realtime_violations() == 0 ? "sustains" : "misses");
  return 0;
}
