// Quickstart: the shortest path through the public API.
//
//   1. pick the machine and species (SIS18, ¹⁴N⁷⁺ — the paper's §V setup),
//   2. choose the gap amplitude from a synchrotron-frequency target,
//   3. build the closed HIL loop (compiled CGRA kernel + phase controller),
//   4. fire one 8° phase jump and watch the loop damp the oscillation.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/units.hpp"
#include "hil/turnloop.hpp"
#include "io/asciiplot.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

int main() {
  using namespace citl;

  // 1. Machine and beam.
  const phys::Ion ion = phys::ion_n14_7plus();
  const phys::Ring ring = phys::sis18(/*harmonic=*/4);
  const double f_ref = 800.0e3;  // revolution frequency [Hz]
  const double gamma =
      phys::gamma_from_revolution_frequency(f_ref, ring.circumference_m);
  std::printf("working point: %s, gamma = %.5f, beta = %.5f, eta = %.5f\n",
              ion.name.c_str(), gamma, phys::beta_from_gamma(gamma),
              ring.phase_slip(gamma));

  // 2. Gap amplitude for a 1.28 kHz synchrotron frequency (§V).
  const double gap_v =
      phys::amplitude_for_synchrotron_frequency(ion, ring, gamma, 1280.0);
  std::printf("gap amplitude for f_s = 1.28 kHz: %.1f V\n", gap_v);

  // 3. The hardware-in-the-loop setup: beam model compiled onto the CGRA,
  //    gap/reference DDS, phase detector and FIR controller all wired up.
  hil::TurnLoopConfig cfg;
  cfg.kernel.ion = ion;
  cfg.kernel.ring = ring;
  cfg.kernel.pipelined = true;  // the paper's 2-stage loop pipelining
  cfg.f_ref_hz = f_ref;
  cfg.gap_voltage_v = gap_v;
  cfg.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), /*interval=*/1.0,
                                       /*first toggle at*/ 2.0e-3);
  hil::TurnLoop loop(cfg);
  std::printf("CGRA schedule: %u ticks -> max revolution frequency %.2f MHz\n",
              loop.kernel().schedule.length,
              loop.kernel().schedule.max_revolution_frequency_hz(
                  loop.kernel().arch.clock_hz) /
                  1e6);

  // 4. Run 20 ms and plot the measured beam phase.
  std::vector<double> t_ms, phase_deg;
  loop.run(static_cast<std::int64_t>(20.0e-3 * f_ref),
           [&](const hil::TurnRecord& r) {
             if (loop.turn() % 16 == 0) {
               t_ms.push_back(r.time_s * 1e3);
               phase_deg.push_back(rad_to_deg(r.phase_rad));
             }
           });
  std::printf("\n%s\n",
              io::ascii_plot(t_ms, phase_deg,
                             {.width = 100,
                              .height = 18,
                              .title = "beam phase [deg]: 8 deg jump at 2 ms, "
                                       "oscillation damped by the loop",
                              .y_label = {},
                              .x_label = "t [ms]"})
                  .c_str());
  std::printf("final phase: %.2f deg (settled at minus the jump amplitude)\n",
              phase_deg.back());
  return 0;
}
