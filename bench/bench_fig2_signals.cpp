// F2 — Fig. 2: example input and output signals with harmonic number h = 2
// (non-equilibrium snapshot).
//
// Regenerates the three traces of the figure from the sample-accurate
// framework: the reference sine (blue in the paper), the phase-shifted gap
// sine at 2·f_ref (black), and the Gaussian beam pulses the simulator emits
// (green) — during a forced non-equilibrium moment (fresh phase jump).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/units.hpp"
#include "hil/framework.hpp"
#include "io/asciiplot.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sig/dds.hpp"

using namespace citl;

namespace {

hil::FrameworkConfig fig2_config() {
  hil::FrameworkConfig fc;
  fc.kernel.ring = phys::sis18(2);  // the figure uses h = 2
  fc.kernel.n_bunches = 2;          // one bunch per bucket
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const double gamma = phys::gamma_from_revolution_frequency(
      fc.f_ref_hz, fc.kernel.ring.circumference_m);
  fc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), fc.kernel.ring, gamma, 1280.0);
  // A jump shortly before the capture window => non-equilibrium snapshot.
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 1.9e-3);
  return fc;
}

void print_figure() {
  hil::Framework fw(fig2_config());
  fw.run_seconds(2.0e-3);  // settle + jump just applied

  // Capture two reference periods of all three signals.
  const int window = static_cast<int>(2.0 * 250.0e6 / 800.0e3);
  std::vector<double> t_us, ref_v, gap_v, beam_v;

  // The framework exposes beam/monitor; tap ref/gap by regenerating the DDS
  // values through a second pair of synthesisers locked to the same time.
  // (This is what an oscilloscope probe on the analogue lines would see.)
  sig::Dds ref(kSampleClock, 800.0e3, 0.8);
  sig::Dds gap(kSampleClock, 1.6e6, 0.8);
  for (Tick i = 0; i < fw.now(); ++i) {
    ref.tick();
    gap.tick();
  }
  for (int i = 0; i < window; ++i) {
    gap.set_phase_offset(deg_to_rad(8.0));  // the jump is in force
    t_us.push_back(kSampleClock.to_seconds(fw.now()) * 1e6);
    ref_v.push_back(ref.tick());
    gap_v.push_back(gap.tick());
    beam_v.push_back(fw.tick().beam_v);
  }

  std::printf(
      "F2 / Fig. 2 — input/output signals, h = 2, non-equilibrium snapshot "
      "(8° jump just applied)\n\n");
  std::printf("%s\n",
              io::ascii_plot2(t_us, ref_v, t_us, gap_v,
                              {.width = 110,
                               .height = 16,
                               .title = "reference (*) 800 kHz vs gap (o) "
                                        "1.6 MHz [V] — two ref periods",
                               .y_label = {},
                               .x_label = "t [µs]"})
                  .c_str());
  std::printf("%s\n",
              io::ascii_plot(t_us, beam_v,
                             {.width = 110,
                              .height = 12,
                              .title = "beam signal: Gauss pulse per bunch "
                                       "passage [V]",
                              .y_label = {},
                              .x_label = "t [µs]"})
                  .c_str());

  // Quantitative checks the figure implies.
  int pulses = 0;
  bool in_pulse = false;
  for (double v : beam_v) {
    if (!in_pulse && v > 0.3) {
      ++pulses;
      in_pulse = true;
    } else if (in_pulse && v < 0.05) {
      in_pulse = false;
    }
  }
  std::printf("pulses in two reference periods: %d (expected 2·h = 4, "
              "window edges may clip one)\n",
              pulses);
  std::printf("real-time violations: %lld\n\n",
              static_cast<long long>(fw.realtime_violations()));
}

void BM_FrameworkTick(benchmark::State& state) {
  hil::Framework fw(fig2_config());
  fw.params().set("record_enable", 0.0);
  fw.run_seconds(0.2e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fw.tick().beam_v);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_MHz"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_FrameworkTick);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
