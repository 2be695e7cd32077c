// S1 — scenario-sweep engine: throughput, kernel-cache effectiveness and
// deterministic replay at scale.
//
// Runs the ISSUE's acceptance sweep: 64 scenarios (jump amplitude x
// controller gain, over four distinct kernel configurations) once serially
// and once on 8 worker threads, then checks that
//   * both runs produce bit-identical metric reports,
//   * each distinct kernel was compiled exactly once per sweep,
// and reports the parallel speedup. On a single-core container the speedup
// degenerates to ~1x — the table prints the measured value either way; the
// >=4x expectation only applies on >=8 hardware threads.
//
// The S1 summary is also written to `BENCH_sweep.json` so the sweep-engine
// perf trajectory is machine readable. Override with `--out <path>`;
// `--out -` disables the file.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "core/units.hpp"
#include "hil/framework.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/kernel_cache.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

using namespace citl;

namespace {

hil::FrameworkConfig paper_config() {
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  fc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  return fc;
}

sweep::SweepConfig acceptance_sweep() {
  // 4 jump amplitudes x 4 gains x 4 gap-voltage scalings = 64 scenarios,
  // exactly 4 distinct kernels (only the voltage scaling reaches the kernel).
  sweep::SweepConfig config;
  config.seed = 2024;
  for (double v_scale : {1.0, 0.9, 1.1, 0.8}) {
    for (double jump_deg : {4.0, 6.0, 8.0, 10.0}) {
      for (double gain : {-2.0, -3.5, -5.0, -6.5}) {
        sweep::Scenario s;
        s.name = 'v' + std::to_string(v_scale);
        s.name += "_j" + std::to_string(jump_deg);
        s.name += "_g" + std::to_string(gain);
        s.framework = paper_config();
        s.framework.gap_voltage_v *= v_scale;
        s.framework.adc_noise_rms_v = 0.002;
        s.framework.controller.gain = gain;
        s.framework.jumps =
            ctrl::PhaseJumpProgramme(deg_to_rad(jump_deg), 1.0, 0.8e-3);
        s.duration_s = 2.5e-3;
        config.scenarios.push_back(std::move(s));
      }
    }
  }
  return config;
}

void write_sweep_json(const std::string& path, const sweep::SweepResult& serial,
                      const sweep::SweepResult& par8, double speedup,
                      bool identical) {
  io::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(std::string_view("bench_sweep"));
  w.key("scenario_count").value(static_cast<std::uint64_t>(64));
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("serial").begin_object();
  w.key("wall_time_s").value(serial.wall_time_s);
  w.key("distinct_kernels")
      .value(static_cast<std::uint64_t>(serial.distinct_kernels));
  w.key("kernel_compilations")
      .value(static_cast<std::uint64_t>(serial.kernel_compilations));
  w.end_object();
  w.key("par8").begin_object();
  w.key("wall_time_s").value(par8.wall_time_s);
  w.key("distinct_kernels")
      .value(static_cast<std::uint64_t>(par8.distinct_kernels));
  w.key("kernel_compilations")
      .value(static_cast<std::uint64_t>(par8.kernel_compilations));
  w.end_object();
  w.key("speedup").value(speedup);
  w.key("reports_identical").value(identical);
  w.end_object();
  io::write_text_file(path, w.str() + "\n");
  std::printf("wrote %s\n", path.c_str());
}

void print_report(const std::string& json_path) {
  sweep::SweepConfig config = acceptance_sweep();
  std::printf("S1 — 64-scenario sweep (4 distinct kernels), "
              "hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());

  config.threads = 1;
  const sweep::SweepResult serial = sweep::run_sweep(config);
  config.threads = 8;
  const sweep::SweepResult par8 = sweep::run_sweep(config);

  const bool identical =
      sweep::metrics_csv(serial) == sweep::metrics_csv(par8);
  const double speedup = par8.wall_time_s > 0.0
                             ? serial.wall_time_s / par8.wall_time_s
                             : 0.0;

  io::Table t({"quantity", "serial", "8 threads"});
  t.add_row({"scenarios", io::Table::num(64), io::Table::num(64)});
  t.add_row({"distinct kernels",
             io::Table::num(static_cast<double>(serial.distinct_kernels)),
             io::Table::num(static_cast<double>(par8.distinct_kernels))});
  t.add_row({"kernel compilations",
             io::Table::num(static_cast<double>(serial.kernel_compilations)),
             io::Table::num(static_cast<double>(par8.kernel_compilations))});
  t.add_row({"wall time [s]", io::Table::num(serial.wall_time_s, 4),
             io::Table::num(par8.wall_time_s, 4)});
  t.add_row({"speedup", "1.0", io::Table::num(speedup, 3)});
  t.add_row({"reports bit-identical", "-", identical ? "YES" : "NO"});
  std::printf("%s\n", t.render().c_str());

  if (!identical) {
    std::printf("ERROR: serial and 8-thread sweeps disagree!\n");
  }
  if (serial.kernel_compilations != serial.distinct_kernels ||
      par8.kernel_compilations != par8.distinct_kernels) {
    std::printf("ERROR: kernel cache recompiled a kernel!\n");
  }
  if (!json_path.empty()) {
    write_sweep_json(json_path, serial, par8, speedup, identical);
  }
}

void BM_KernelCompileCold(benchmark::State& state) {
  const hil::FrameworkConfig fc = paper_config();
  const cgra::BeamKernelConfig kc = hil::effective_kernel_config(fc);
  for (auto _ : state) {
    sweep::KernelCache cache;
    benchmark::DoNotOptimize(cache.get(kc, fc.arch));
  }
}
BENCHMARK(BM_KernelCompileCold)->Unit(benchmark::kMillisecond);

void BM_KernelCacheHit(benchmark::State& state) {
  const hil::FrameworkConfig fc = paper_config();
  const cgra::BeamKernelConfig kc = hil::effective_kernel_config(fc);
  sweep::KernelCache cache;
  benchmark::DoNotOptimize(cache.get(kc, fc.arch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(kc, fc.arch));
  }
}
BENCHMARK(BM_KernelCacheHit);

void BM_FrameworkFromSharedKernel(benchmark::State& state) {
  // Framework construction cost once the compilation is amortised away.
  const hil::FrameworkConfig fc = paper_config();
  sweep::KernelCache cache;
  auto kernel = cache.get(hil::effective_kernel_config(fc), fc.arch);
  for (auto _ : state) {
    hil::Framework fw(fc, kernel);
    benchmark::DoNotOptimize(fw.now());
  }
}
BENCHMARK(BM_FrameworkFromSharedKernel)->Unit(benchmark::kMillisecond);

void BM_SweepScenarioMillisecond(benchmark::State& state) {
  // End-to-end cost of one 1 ms scenario inside the sweep machinery.
  sweep::SweepConfig config;
  sweep::Scenario s;
  s.framework = paper_config();
  s.framework.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.3e-3);
  s.duration_s = 1.0e-3;
  config.scenarios.push_back(std::move(s));
  config.threads = 1;
  config.collect_traces = false;
  sweep::KernelCache cache;
  config.cache = &cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep::run_sweep(config).scenarios.size());
  }
}
BENCHMARK(BM_SweepScenarioMillisecond)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_sweep.json";
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
