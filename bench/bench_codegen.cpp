// Kernel execution tiers: interpreter vs native codegen.
//
// The headline number is the codegen-vs-interpreter speedup on the
// CORDIC-heavy `cavity_iq_servo` kernel at binary64, 8 lanes — the ISSUE-10
// acceptance floor is 5x. Every kernel row is measured on the batched SoA
// engine with a null lane bus so the comparison is pure execution-tier cost,
// and the tiers are cross-checked for bit identity right here before any
// number is reported (the Codegen* tests pin the same invariant at depth).
//
// The disk cache is exercised both ways: the cold pass records the real
// host-compiler wall time, then the in-process memo is dropped and the same
// kernel is resolved again — that pass must come from the disk cache with a
// compile cost of ~0 ms.
//
// When no host compiler is available the native tier cannot run; the report
// then says `"codegen_tier": "interpreter-fallback"` and carries no codegen
// columns at all, rather than silently benchmarking the interpreter under
// a codegen heading.
//
// The summary is written to `bench/reports/BENCH_codegen.json` (override
// with `--out <path>`; `--out -` disables the file).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/codegen.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "io/json.hpp"
#include "io/table.hpp"

using namespace citl;
using namespace citl::cgra;

namespace {

constexpr std::size_t kLanes = 8;

struct NullLaneBus final : public LaneSensorBus {
  double read(std::size_t, SensorRegion, double) override { return 0.0; }
  void write(std::size_t, SensorRegion, double, double) override {}
};

struct KernelCase {
  const char* name;
  CompiledKernel kernel;
};

std::vector<KernelCase> bench_kernels() {
  std::vector<KernelCase> cases;
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  cases.push_back({"demo_oscillator",
                   compile_kernel(demo_oscillator_source(), grid_5x5(),
                                  "demo_oscillator")});
  BeamKernelConfig kc;
  cases.push_back({"beam_analytic",
                   compile_kernel(analytic_beam_kernel_source(kc), grid_5x5(),
                                  "beam_analytic")});
  return cases;
}

/// ns per batched iteration for a set of tiers, measured *interleaved*:
/// round-robin ~5 ms chunks per tier until every tier has >= 0.25 s of
/// samples, keeping each tier's fastest chunk. The minimum is the
/// undisturbed speed on a shared, preemptible host (a mean folds every
/// scheduler preemption into the number), and interleaving guarantees the
/// tiers being *ratioed* sampled the same host conditions — timing them
/// minutes apart turns CPU-frequency drift into a fake speedup delta.
std::vector<double> time_tiers_ns(const CompiledKernel& kernel,
                                  Precision precision,
                                  const std::vector<ExecTier>& tiers) {
  NullLaneBus bus;
  std::vector<std::unique_ptr<BatchedCgraMachine>> machines;
  std::vector<int> chunks;
  for (ExecTier tier : tiers) {
    auto m = std::make_unique<BatchedCgraMachine>(kernel, kLanes, bus,
                                                  precision, tier);
    const auto w0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000; ++i) m->run_iteration_all_lanes();
    const auto w1 = std::chrono::steady_clock::now();
    const double per_iter =
        std::max(std::chrono::duration<double>(w1 - w0).count() / 1000.0,
                 1.0e-9);
    chunks.push_back(std::max(1000, static_cast<int>(0.005 / per_iter)));
    machines.push_back(std::move(m));
  }
  std::vector<double> best(tiers.size(),
                           std::numeric_limits<double>::infinity());
  std::vector<double> elapsed(tiers.size(), 0.0);
  bool done = false;
  while (!done) {
    done = true;
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      if (elapsed[t] >= 0.25) continue;
      done = false;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < chunks[t]; ++i) {
        machines[t]->run_iteration_all_lanes();
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      elapsed[t] += dt;
      best[t] = std::min(best[t], dt / static_cast<double>(chunks[t]));
    }
  }
  for (double& b : best) b *= 1.0e9;
  return best;
}

/// Cheap cross-tier identity guard: run both tiers side by side for a few
/// hundred iterations and require byte-equal states. The full matrix
/// (one lane, masked lanes, write logs, oracle, random kernels) lives in
/// tests/test_codegen.cpp and the CgraFuzz suites; this stops a benchmark
/// from ever reporting a speedup for wrong results.
bool tiers_identical(const CompiledKernel& kernel, Precision precision) {
  NullLaneBus bus;
  BatchedCgraMachine mi(kernel, kLanes, bus, precision,
                        ExecTier::kInterpreter);
  BatchedCgraMachine mn(kernel, kLanes, bus, precision, ExecTier::kNative);
  for (int i = 0; i < 300; ++i) {
    mi.run_iteration_all_lanes();
    mn.run_iteration_all_lanes();
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t s = 0; s < kernel.dfg.states().size(); ++s) {
      const StateHandle h{static_cast<int>(s)};
      const double a = mi.state(h, l);
      const double c = mn.state(h, l);
      if (a != c && !(std::isnan(a) && std::isnan(c))) return false;
    }
  }
  return true;
}

struct TierRow {
  std::string kernel;
  std::string precision;
  unsigned schedule_length = 0;
  double interpreter_ns = 0.0;
  double native_ns = 0.0;       ///< 0 when the native tier is unavailable
  double native_speedup = 0.0;  ///< 0 when the native tier is unavailable
  bool identical = false;
};

struct CacheNumbers {
  double cold_compile_ms = 0.0;  ///< host-compiler wall time, first resolve
  double warm_compile_ms = 0.0;  ///< must be ~0: served from the disk cache
  double warm_reload_ms = 0.0;   ///< wall time of the warm resolve (dlopen)
  bool warm_was_disk_hit = false;
};

/// Resolves cavity_iq_servo f64 once cold and once warm (in-process memo
/// dropped in between) and reports the compile costs of both passes.
CacheNumbers measure_cache(const CompiledKernel& kernel) {
  CacheNumbers out;
  auto& cache = NativeKernelCache::global();
  auto cold = cache.get(kernel, Precision::kFloat64, kLanes);
  if (cold == nullptr) return out;
  out.cold_compile_ms = cold->compile_ms();
  cold.reset();
  cache.clear_memory();
  const auto t0 = std::chrono::steady_clock::now();
  auto warm = cache.get(kernel, Precision::kFloat64, kLanes);
  const auto t1 = std::chrono::steady_clock::now();
  if (warm != nullptr) {
    out.warm_compile_ms = warm->compile_ms();
    out.warm_was_disk_hit = warm->disk_hit();
  }
  out.warm_reload_ms = std::chrono::duration<double>(t1 - t0).count() * 1.0e3;
  return out;
}

void write_codegen_json(const std::string& path, bool native_available,
                        const std::vector<TierRow>& rows,
                        const CacheNumbers& cache, double headline) {
  io::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(std::string_view("bench_codegen"));
  w.key("batch_lanes").value(static_cast<std::uint64_t>(kLanes));
  w.key("codegen_tier")
      .value(std::string_view(native_available ? "native"
                                               : "interpreter-fallback"));
  w.key("compiler").value(NativeKernelCache::compiler_version());
  w.key("simd_arch").value(NativeKernelCache::target_simd_arch());
  if (native_available) {
    w.key("headline_kernel").value(std::string_view("cavity_iq_servo"));
    w.key("headline_precision").value(std::string_view("f64"));
    w.key("headline_speedup").value(headline);
  }
  w.key("rows").begin_array();
  for (const TierRow& r : rows) {
    w.begin_object();
    w.key("kernel").value(r.kernel);
    w.key("precision").value(r.precision);
    w.key("schedule_length")
        .value(static_cast<std::uint64_t>(r.schedule_length));
    w.key("interpreter_ns_per_iter").value(r.interpreter_ns);
    if (native_available) {
      w.key("native_ns_per_iter").value(r.native_ns);
      w.key("native_speedup").value(r.native_speedup);
    }
    w.key("tiers_identical").value(r.identical);
    w.end_object();
  }
  w.end_array();
  if (native_available) {
    w.key("cache").begin_object();
    w.key("cold_compile_ms").value(cache.cold_compile_ms);
    w.key("warm_compile_ms").value(cache.warm_compile_ms);
    w.key("warm_reload_ms").value(cache.warm_reload_ms);
    w.key("warm_was_disk_hit").value(cache.warm_was_disk_hit);
    w.end_object();
  }
  const CodegenStats s = NativeKernelCache::global().stats();
  w.key("stats").begin_object();
  w.key("compiles").value(s.compiles);
  w.key("memo_hits").value(s.memo_hits);
  w.key("disk_hits").value(s.disk_hits);
  w.key("repairs").value(s.repairs);
  w.key("fallbacks").value(s.fallbacks);
  w.key("compile_ms_total").value(s.compile_ms_total);
  w.end_object();
  w.end_object();
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  io::write_text_file(path, w.str() + "\n");
  std::printf("wrote %s\n", path.c_str());
}

void print_report(const std::string& json_path) {
  const bool native_available = NativeKernelCache::compiler_available();
  std::printf("codegen tier: %s\n",
              native_available ? "native"
                               : "interpreter-fallback (no compiler)");
  if (native_available) {
    std::printf("compiler: %s (simd: %s)\ncache dir: %s\n",
                NativeKernelCache::compiler_version().c_str(),
                NativeKernelCache::target_simd_arch().c_str(),
                NativeKernelCache::cache_dir().c_str());
  }

  std::vector<KernelCase> cases = bench_kernels();
  CacheNumbers cache;
  if (native_available) cache = measure_cache(cases[0].kernel);

  std::vector<TierRow> rows;
  double headline = 0.0;
  for (const KernelCase& c : cases) {
    for (Precision p : {Precision::kFloat64, Precision::kFloat32}) {
      TierRow r;
      r.kernel = c.name;
      r.precision = p == Precision::kFloat64 ? "f64" : "f32";
      r.schedule_length = c.kernel.schedule.length;
      r.identical =
          native_available ? tiers_identical(c.kernel, p) : true;
      std::vector<ExecTier> tiers = {ExecTier::kInterpreter};
      if (native_available) tiers.push_back(ExecTier::kNative);
      const std::vector<double> ns = time_tiers_ns(c.kernel, p, tiers);
      r.interpreter_ns = ns[0];
      if (native_available) {
        r.native_ns = ns[1];
        r.native_speedup = r.interpreter_ns / r.native_ns;
        if (r.kernel == "cavity_iq_servo" && p == Precision::kFloat64) {
          headline = r.native_speedup;
        }
      }
      rows.push_back(std::move(r));
    }
  }

  io::Table t({"kernel", "prec", "interp [ns]", "native [ns]",
               "native speedup", "identical"});
  for (const TierRow& r : rows) {
    t.add_row({r.kernel, r.precision, io::Table::num(r.interpreter_ns, 1),
               r.native_ns > 0.0 ? io::Table::num(r.native_ns, 1) : "-",
               r.native_speedup > 0.0 ? io::Table::num(r.native_speedup, 2)
                                      : "-",
               r.identical ? "YES" : "NO"});
  }
  std::printf("%s\n", t.render().c_str());

  if (native_available) {
    std::printf("headline: cavity_iq_servo f64 x%zu lanes codegen speedup "
                "%.2fx (floor: 5x)\n",
                kLanes, headline);
    std::printf("cache: cold compile %.1f ms, warm compile %.3f ms "
                "(disk hit: %s, reload %.1f ms)\n\n",
                cache.cold_compile_ms, cache.warm_compile_ms,
                cache.warm_was_disk_hit ? "yes" : "no",
                cache.warm_reload_ms);
    if (headline < 5.0) {
      std::printf("WARNING: codegen speedup %.2fx below the 5x floor\n",
                  headline);
    }
    for (const TierRow& r : rows) {
      if (!r.identical) {
        std::printf("ERROR: tiers disagree on %s %s — numbers above are "
                    "meaningless!\n",
                    r.kernel.c_str(), r.precision.c_str());
      }
    }
  }
  if (!json_path.empty()) {
    write_codegen_json(json_path, native_available, rows, cache, headline);
  }
}

void BM_InterpreterIteration(benchmark::State& state) {
  const CompiledKernel kernel = compile_kernel(cavity_iq_servo_source(),
                                               grid_4x4(), "cavity_iq_servo");
  NullLaneBus bus;
  BatchedCgraMachine m(kernel, kLanes, bus, Precision::kFloat64,
                       ExecTier::kInterpreter);
  for (auto _ : state) m.run_iteration_all_lanes();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK(BM_InterpreterIteration);

void BM_NativeIteration(benchmark::State& state) {
  const CompiledKernel kernel = compile_kernel(cavity_iq_servo_source(),
                                               grid_4x4(), "cavity_iq_servo");
  if (!NativeKernelCache::compiler_available()) {
    state.SkipWithError("no host compiler: native tier unavailable");
    return;
  }
  NullLaneBus bus;
  BatchedCgraMachine m(kernel, kLanes, bus, Precision::kFloat64,
                       ExecTier::kNative);
  for (auto _ : state) m.run_iteration_all_lanes();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK(BM_NativeIteration);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "bench/reports/BENCH_codegen.json";
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
