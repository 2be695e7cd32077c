// S2 — batched lane-parallel CGRA execution: lane speedup at machine level
// and end-to-end on the scenario sweep.
//
// Acceptance sweep: 64 turn-level scenarios (jump amplitude x controller
// gain) over ONE compiled kernel, run once per-scenario and once through the
// batched engine (8 lanes), both on a single worker thread so the measured
// ratio is pure lane parallelism, not thread parallelism. The batched run
// must produce byte-identical reports (also pinned by the BatchSweep tests)
// and is expected to clear >= 2x scenarios/second on >= 4 lanes.
//
// Two secondary numbers are reported for context and kept honest:
//   * the same sweep over the *sampled* turn-level kernel (bus reads cost the
//     same per lane either way, so the speedup is smaller),
//   * a sample-accurate framework sweep, which is dominated by the 250 MHz
//     converter tick chain outside the CGRA — batching barely moves it, and
//     the table says so rather than hiding it.
//
// The S2 summary is written to `BENCH_batch.json` (override with `--out
// <path>`; `--out -` disables the file).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/machine.hpp"
#include "core/units.hpp"
#include "hil/turnloop.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

using namespace citl;

namespace {

constexpr std::size_t kLanes = 8;

hil::TurnLoopConfig paper_turn_config(bool synthesize) {
  hil::TurnLoopConfig tc;
  tc.kernel.pipelined = true;
  tc.f_ref_hz = 800.0e3;
  tc.synthesize_waveform = synthesize;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  return tc;
}

/// 64 scenarios, one kernel: the grid axes only touch the jump programme and
/// the controller, never the kernel constants.
std::vector<sweep::Scenario> acceptance_grid(const hil::TurnLoopConfig& base,
                                             double duration_s) {
  return sweep::ScenarioGridBuilder::turn_level(base)
      .jump_amplitudes_deg({2, 3, 4, 5, 6, 8, 10, 12})
      .gains({-1, -2, -3, -4, -5, -6, -7, -8})
      .jump_timing(1.0, 1.0e-3)
      .duration_s(duration_s)
      .build();
}

struct SweepPair {
  double serial_wall_s = 0.0;
  double batched_wall_s = 0.0;
  double speedup = 0.0;
  std::size_t chunks = 0;
  bool identical = false;
};

SweepPair run_pair(std::vector<sweep::Scenario> scenarios) {
  sweep::SweepConfig config;
  config.scenarios = std::move(scenarios);
  config.threads = 1;  // isolate lane parallelism from thread parallelism

  const sweep::SweepResult serial = sweep::run_sweep(config);
  config.batch_lanes = kLanes;
  const sweep::SweepResult batched = sweep::run_sweep(config);

  SweepPair p;
  p.serial_wall_s = serial.wall_time_s;
  p.batched_wall_s = batched.wall_time_s;
  p.speedup = batched.wall_time_s > 0.0
                  ? serial.wall_time_s / batched.wall_time_s
                  : 0.0;
  p.chunks = batched.batch_chunks;
  p.identical = sweep::metrics_csv(serial) == sweep::metrics_csv(batched) &&
                sweep::metrics_json(serial) == sweep::metrics_json(batched);
  return p;
}

/// Machine-level lane speedup: N one-lane engines vs one N-lane engine,
/// same kernel, same per-lane bus, no loop machinery around it.
double machine_level_speedup(int iterations) {
  cgra::BeamKernelConfig kc = paper_turn_config(true).kernel;
  const cgra::CompiledKernel kernel = cgra::compile_kernel(
      cgra::analytic_beam_kernel_source(kc), cgra::grid_5x5(),
      "beam_analytic");
  cgra::NullSensorBus null_bus;

  using Clock = std::chrono::steady_clock;

  std::vector<std::unique_ptr<cgra::BatchedCgraMachine>> machines;
  for (std::size_t i = 0; i < kLanes; ++i) {
    machines.push_back(
        std::make_unique<cgra::BatchedCgraMachine>(kernel, null_bus));
  }
  const auto t0 = Clock::now();
  for (int it = 0; it < iterations; ++it) {
    for (auto& m : machines) m->run_iteration();
  }
  const auto t1 = Clock::now();

  std::vector<cgra::SensorBus*> buses(kLanes, &null_bus);
  cgra::PerLaneBusAdapter adapter(std::move(buses));
  cgra::BatchedCgraMachine batched(kernel, kLanes, adapter);
  const auto t2 = Clock::now();
  for (int it = 0; it < iterations; ++it) {
    batched.run_iteration_all_lanes();
  }
  const auto t3 = Clock::now();

  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double batch_s = std::chrono::duration<double>(t3 - t2).count();
  return batch_s > 0.0 ? serial_s / batch_s : 0.0;
}

void write_batch_json(const std::string& path, const SweepPair& synth,
                      const SweepPair& sampled, const SweepPair& framework,
                      double machine_speedup) {
  const auto emit = [](io::JsonWriter& w, const char* key,
                       const SweepPair& p) {
    w.key(key).begin_object();
    w.key("serial_wall_s").value(p.serial_wall_s);
    w.key("batched_wall_s").value(p.batched_wall_s);
    w.key("scenarios_per_sec_serial")
        .value(p.serial_wall_s > 0.0 ? 64.0 / p.serial_wall_s : 0.0);
    w.key("scenarios_per_sec_batched")
        .value(p.batched_wall_s > 0.0 ? 64.0 / p.batched_wall_s : 0.0);
    w.key("speedup").value(p.speedup);
    w.key("batch_chunks").value(static_cast<std::uint64_t>(p.chunks));
    w.key("reports_identical").value(p.identical);
    w.end_object();
  };

  io::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(std::string_view("bench_batch"));
  w.key("scenario_count").value(static_cast<std::uint64_t>(64));
  w.key("batch_lanes").value(static_cast<std::uint64_t>(kLanes));
  w.key("threads").value(static_cast<std::uint64_t>(1));
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  emit(w, "turn_level_synth", synth);
  emit(w, "turn_level_sampled", sampled);
  emit(w, "framework", framework);
  w.key("machine_level_speedup").value(machine_speedup);
  w.end_object();
  io::write_text_file(path, w.str() + "\n");
  std::printf("wrote %s\n", path.c_str());
}

void print_report(const std::string& json_path) {
  std::printf("S2 — 64-scenario single-kernel sweep, per-scenario vs %zu "
              "lockstep lanes (1 worker thread)\n\n",
              kLanes);

  const double machine_speedup = machine_level_speedup(200000);

  const SweepPair synth =
      run_pair(acceptance_grid(paper_turn_config(true), 40.0e-3));
  const SweepPair sampled =
      run_pair(acceptance_grid(paper_turn_config(false), 40.0e-3));

  // Sample-accurate context number: a short framework sweep (the tick chain
  // outside the CGRA dominates — lane parallelism cannot help much there).
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const SweepPair framework =
      run_pair(sweep::ScenarioGridBuilder::sample_accurate(fc)
                   .jump_amplitudes_deg({2, 3, 4, 5, 6, 8, 10, 12})
                   .gains({-1, -2, -3, -4, -5, -6, -7, -8})
                   .jump_timing(1.0, 0.2e-3)
                   .duration_s(1.0e-3)
                   .build());

  io::Table t({"sweep", "serial [s]", "batched [s]", "speedup", "identical"});
  const auto row = [&](const char* name, const SweepPair& p) {
    t.add_row({name, io::Table::num(p.serial_wall_s, 4),
               io::Table::num(p.batched_wall_s, 4),
               io::Table::num(p.speedup, 3), p.identical ? "YES" : "NO"});
  };
  row("turn-level, synthesis kernel", synth);
  row("turn-level, sampled kernel", sampled);
  row("sample-accurate framework", framework);
  std::printf("%s\n", t.render().c_str());
  std::printf("machine-level (no loop around it): %zu machines vs %zu lanes "
              "= %.2fx\n\n",
              kLanes, kLanes, machine_speedup);

  if (!synth.identical || !sampled.identical || !framework.identical) {
    std::printf("ERROR: batched and per-scenario sweeps disagree!\n");
  }
  if (synth.speedup < 2.0) {
    std::printf("WARNING: turn-level acceptance speedup %.2fx below the 2x "
                "target (see docs/BATCHING.md for the machine profile)\n",
                synth.speedup);
  }
  if (!json_path.empty()) {
    write_batch_json(json_path, synth, sampled, framework, machine_speedup);
  }
}

void BM_SerialIterationX8(benchmark::State& state) {
  const cgra::BeamKernelConfig kc = paper_turn_config(true).kernel;
  const cgra::CompiledKernel kernel = cgra::compile_kernel(
      cgra::analytic_beam_kernel_source(kc), cgra::grid_5x5(),
      "beam_analytic");
  cgra::NullSensorBus bus;
  std::vector<std::unique_ptr<cgra::BatchedCgraMachine>> machines;
  for (std::size_t i = 0; i < kLanes; ++i) {
    machines.push_back(std::make_unique<cgra::BatchedCgraMachine>(kernel, bus));
  }
  for (auto _ : state) {
    for (auto& m : machines) m->run_iteration();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK(BM_SerialIterationX8);

void BM_BatchedIterationX8(benchmark::State& state) {
  const cgra::BeamKernelConfig kc = paper_turn_config(true).kernel;
  const cgra::CompiledKernel kernel = cgra::compile_kernel(
      cgra::analytic_beam_kernel_source(kc), cgra::grid_5x5(),
      "beam_analytic");
  cgra::NullSensorBus bus;
  std::vector<cgra::SensorBus*> buses(kLanes, &bus);
  cgra::PerLaneBusAdapter adapter(std::move(buses));
  cgra::BatchedCgraMachine batched(kernel, kLanes, adapter);
  for (auto _ : state) {
    batched.run_iteration_all_lanes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK(BM_BatchedIterationX8);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_batch.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      json_path = argv[i + 1];
      if (json_path == "-") json_path.clear();
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  print_report(json_path);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
