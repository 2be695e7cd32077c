// F5 — Fig. 5: phase difference between reference and beam signal under
// periodic 8° gap-phase jumps, with the closed beam-phase control loop
// damping the excited dipole oscillation.
//
//   Fig. 5a (paper) = the CGRA HIL simulator  -> our TurnLoop series
//   Fig. 5b (paper) = the real SIS18 beam     -> our ensemble reference
//
// Also prints the §V quantitative rows: synchrotron frequency (T-fs),
// first peak-to-peak over jump amplitude (T-p2p, expected ≈ 2), and the
// residual-after-damping ratio, plus the control-off ablation.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "hil/experiment.hpp"
#include "hil/turnloop.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

using namespace citl;

namespace {

void print_figure() {
  hil::MdeScenarioConfig cfg;
  cfg.duration_s = 0.12;  // two full jump cycles
  cfg.ensemble_particles = 10'000;

  std::printf("F5 / Fig. 5 — MDE reproduction: %s, f_ref = %.0f kHz, h = %d, "
              "8° jumps every 1/20 s, FIR f_pass = %.0f Hz, gain = %.0f, "
              "recursion = %.2f\n\n",
              cfg.ion.name.c_str(), cfg.f_ref_hz / 1e3, cfg.ring.harmonic,
              cfg.controller.f_pass_hz, cfg.controller.gain,
              cfg.controller.recursion);

  const hil::MdeResult on = run_mde_scenario(cfg);
  cfg.control_enabled = false;
  // Open loop, the pipelined kernel's one-revolution voltage staleness
  // anti-damps (≈40 /s, see EXPERIMENTS.md) — use the plain kernel so the
  // ablation isolates the missing Landau damping instead.
  cfg.pipelined_kernel = false;
  const hil::MdeResult off = run_mde_scenario(cfg);

  std::printf("%s\n",
              io::ascii_plot2(on.simulator.time_s, on.simulator.phase_deg,
                              on.reference.time_s, on.reference.phase_deg,
                              {.width = 118,
                               .height = 24,
                               .title = "closed loop: simulator (*) vs "
                                        "ensemble reference (o) — phase "
                                        "difference [deg] vs time [s]",
                               .y_label = {},
                               .x_label = "t [s]"})
                  .c_str());
  std::printf("%s\n",
              io::ascii_plot2(off.simulator.time_s, off.simulator.phase_deg,
                              off.reference.time_s, off.reference.phase_deg,
                              {.width = 118,
                               .height = 24,
                               .title = "control OFF ablation: simulator (*) "
                                        "rings on; ensemble (o) filaments "
                                        "(Landau damping, §V discussion)",
                               .y_label = {},
                               .x_label = "t [s]"})
                  .c_str());

  io::Table t({"quantity", "paper", "simulator (5a)", "reference (5b)"});
  t.add_row({"gap amplitude [V]", "adjusted for f_s",
             io::Table::num(on.gap_amplitude_v, 5), "same"});
  t.add_row({"f_s analytic [Hz]", "1280 (target); MDE 1200",
             io::Table::num(on.f_sync_analytic_hz, 5), "same"});
  t.add_row({"f_s measured, loop closed [Hz]", "~1280",
             io::Table::num(on.f_sync_simulator_hz, 5),
             io::Table::num(on.f_sync_reference_hz, 5)});
  t.add_row({"f_s measured, loop open [Hz]", "~1280",
             io::Table::num(off.f_sync_simulator_hz, 5),
             io::Table::num(off.f_sync_reference_hz, 5)});
  t.add_row({"first p2p / jump", "2.0",
             io::Table::num(on.first_p2p_over_jump_sim),
             io::Table::num(on.first_p2p_over_jump_ref)});
  t.add_row({"residual/initial p2p, control on", "≈0 (damped)",
             io::Table::num(on.damping_ratio_sim),
             io::Table::num(on.damping_ratio_ref)});
  t.add_row({"residual/initial p2p, control off", "n/a (1-particle rings)",
             io::Table::num(off.damping_ratio_sim),
             io::Table::num(off.damping_ratio_ref)});
  std::printf("%s\n", t.render().c_str());
}

void BM_TurnLoopStep(benchmark::State& state) {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring,
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m),
      1280.0);
  tl.jumps = ctrl::PhaseJumpProgramme::paper();
  hil::TurnLoop loop(tl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step().phase_rad);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["realtime_factor"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 800.0e3,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TurnLoopStep);

void BM_MdeScenarioSimulatorOnly(benchmark::State& state) {
  hil::MdeScenarioConfig cfg;
  cfg.duration_s = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_mde_simulator(cfg).time_s.size());
  }
}
BENCHMARK(BM_MdeScenarioSimulatorOnly)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
