// X-perf — throughput of the simulation substrate itself: how much faster
// (or slower) than real time each layer of the stack runs on this host.
// This quantifies the fidelity/speed trade-off between the turn-level loop,
// the functional CGRA machine, the cycle-accurate machine, and the full
// sample-accurate framework.
//
// In addition to the console table, the run writes `BENCH_throughput.json`
// (google-benchmark's JSON schema) so the perf trajectory is machine
// readable and can accumulate across revisions. Override the path with
// `--out <path>`; `--out -` disables the file.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cgra/kernels.hpp"
#include "cgra/batch.hpp"
#include "cgra/schedule.hpp"
#include "hil/framework.hpp"
#include "hil/turnloop.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

using namespace citl;

namespace {

double paper_gap_voltage() {
  const phys::Ring ring = phys::sis18(4);
  return phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring,
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m),
      1280.0);
}

void BM_CgraFunctionalIteration(benchmark::State& state) {
  cgra::BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.n_bunches = static_cast<int>(state.range(0));
  kc.pipelined = true;
  const cgra::CompiledKernel k =
      cgra::compile_kernel(cgra::beam_kernel_source(kc), cgra::grid_5x5());
  cgra::NullSensorBus bus;
  cgra::BatchedCgraMachine m(k, bus);
  for (auto _ : state) m.run_iteration();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " bunches, functional");
}
BENCHMARK(BM_CgraFunctionalIteration)->Arg(1)->Arg(8);

void BM_CgraCycleAccurate(benchmark::State& state) {
  cgra::BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.n_bunches = static_cast<int>(state.range(0));
  kc.pipelined = true;
  const cgra::CompiledKernel k =
      cgra::compile_kernel(cgra::beam_kernel_source(kc), cgra::grid_5x5());
  cgra::NullSensorBus bus;
  cgra::BatchedCgraMachine m(k, bus);
  for (auto _ : state) m.run_iteration_cycle_accurate();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " bunches, cycle-accurate");
}
BENCHMARK(BM_CgraCycleAccurate)->Arg(1)->Arg(8);

void BM_TurnLoopRealtimeFactor(benchmark::State& state) {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  tl.gap_voltage_v = paper_gap_voltage();
  tl.jumps = ctrl::PhaseJumpProgramme::paper();
  hil::TurnLoop loop(tl);
  for (auto _ : state) benchmark::DoNotOptimize(loop.step().dt_s);
  state.SetItemsProcessed(state.iterations());
  // >1 means faster than the real accelerator's revolution rate.
  state.counters["x_realtime"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 800.0e3,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TurnLoopRealtimeFactor);

void BM_FrameworkSampleRate(benchmark::State& state) {
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  fc.gap_voltage_v = paper_gap_voltage();
  hil::Framework fw(fc);
  fw.params().set("record_enable", 0.0);
  fw.run_seconds(0.1e-3);
  for (auto _ : state) benchmark::DoNotOptimize(fw.tick().beam_v);
  state.SetItemsProcessed(state.iterations());
  // >1 means the 250 MHz chain simulates faster than the wall clock.
  state.counters["x_realtime"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 250.0e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FrameworkSampleRate);

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  bool explicit_benchmark_out = false;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      explicit_benchmark_out = true;
    }
    args.push_back(argv[i]);
  }
  // Route the JSON file through benchmark's own --benchmark_out machinery;
  // the flag pair is injected so plain `bench_throughput` writes the file.
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path != "-" && !explicit_benchmark_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  ::benchmark::Initialize(&args_count, args.data());
  if (::benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  if (out_path != "-" && !explicit_benchmark_out) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  ::benchmark::Shutdown();
  return 0;
}
