// The kernel execution tiers (interpreter / native codegen): bit identity
// of the native tier for every kernel and precision at one lane and with
// masked lanes, the shape of the emitted C11 source and its strict-C11 lint,
// the disk cache's cold, warm (in-process and from a second process) and
// corrupt-artifact paths, its content-hash key and the exact memo key, the
// no-compiler and failed-compile fallbacks, config threading over the wire,
// the differential oracle's strided scan over natively compiled engines, a
// batched framework sweep loading one native kernel, and native sweeps whose
// lanes end apart or together. Every lane
// is held to the one-lane cycle-accurate walk (values and states) and the
// one-lane interpreter (bus write order) — engine_check.hpp. Every suite
// name starts with "Codegen" so CI can run the subsystem alone with
// --gtest_filter='Codegen*'.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/codegen.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "engine_check.hpp"
#include "hil/framework.hpp"
#include "hil/turnloop.hpp"
#include "obs/metrics.hpp"
#include "oracle/oracle.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "serve/wire.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace citl::cgra {
namespace {

using test_support::check_engine_against_one_lane;

struct KernelCase {
  std::string label;
  std::string source;
  CompiledKernel kernel;
};

KernelCase make_case(std::string label, std::string source,
                     const CgraArch& arch, std::string name) {
  CompiledKernel kernel = compile_kernel(source, arch, std::move(name));
  return {std::move(label), std::move(source), std::move(kernel)};
}

/// Every kernel family the repo ships, including the CORDIC-heavy codegen
/// showcase (the headline kernel of docs/CODEGEN.md).
std::vector<KernelCase> kernel_cases() {
  BeamKernelConfig kc;  // defaults: 14N7+, SIS18, gamma0 = 1.2
  std::vector<KernelCase> cases;

  BeamKernelConfig pipelined = kc;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  cases.push_back(make_case("sampled_pipelined", beam_kernel_source(pipelined),
                            grid_5x5(), "beam_sampled"));
  cases.push_back(make_case("analytic", analytic_beam_kernel_source(kc),
                            grid_5x5(), "beam_analytic"));
  cases.push_back(make_case("ramp", ramp_beam_kernel_source(kc), grid_5x5(),
                            "beam_ramp"));
  cases.push_back(make_case("demo", demo_oscillator_source(), grid_5x5(),
                            "demo_oscillator"));
  cases.push_back(make_case("cavity_iq_servo", cavity_iq_servo_source(),
                            grid_4x4(), "cavity_iq_servo"));
  return cases;
}

bool native_available() { return NativeKernelCache::compiler_available(); }

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Writes an executable /bin/sh script standing in for the host compiler
/// (tests point $CITL_CODEGEN_CC at it).
void write_compiler_wrapper(const std::string& path, const std::string& body) {
  {
    std::ofstream f(path, std::ios::trunc);
    f << "#!/bin/sh\n" << body;
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_all);
}

/// Runs `command` through /bin/sh; returns its wait status and appends its
/// stdout and stderr to `*output`.
int run_shell(const std::string& command, std::string* output) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) output->append(buf, n);
  return ::pclose(pipe);
}

/// Compiles `src` as strict, warning-free C11, with `dir` (where the
/// portability header sits) on the include path; a failure prints the
/// compiler's diagnostics.
void expect_strict_c11(const std::string& dir, const std::string& src) {
  SCOPED_TRACE(src);
  std::string diagnostics;
  EXPECT_EQ(run_shell("'" + NativeKernelCache::compiler_command() +
                          "' -x c -std=c11 -pedantic-errors -Wall -Wextra"
                          " -Werror -fsyntax-only -march=native -I '" +
                          dir + "' '" + src + "'",
                      &diagnostics),
            0)
      << diagnostics;
}

// --- identity: every kernel x precision ------------------------------------

TEST(CodegenIdentity, NativeMatchesInterpreterEveryKernel) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      check_engine_against_one_lane(c.kernel, c.source, 1, ExecTier::kNative,
                                    p, 300);
      ASSERT_EQ(NativeKernelCache::global().stats().fallbacks, 0u);
    }
  }
}

TEST(CodegenIdentity, BatchedMaskedLanesMatchInterpreter) {
  // The 8-lane engine (pipeline-register latching, and interpreted masked
  // passes between native full-width ones) on every kernel but the ramp
  // kernel, which only the one-lane test above covers: each kernel here
  // costs two more cold compiles.
  for (const KernelCase& c : kernel_cases()) {
    if (c.label == "ramp") continue;
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      check_engine_against_one_lane(c.kernel, c.source, 8, ExecTier::kNative,
                                    p, 150);
    }
  }
}

TEST(CodegenIdentity, AutoResolvesAndMatches) {
  const CompiledKernel kernel = compile_kernel(cavity_iq_servo_source(),
                                               grid_4x4(), "cavity_iq_servo");
  NullSensorBus bus;
  BatchedCgraMachine m(kernel, bus, Precision::kFloat64, ExecTier::kAuto);
  EXPECT_EQ(m.exec_tier(), native_available() ? ExecTier::kNative
                                              : ExecTier::kInterpreter);
  check_engine_against_one_lane(kernel, cavity_iq_servo_source(), 1,
                                ExecTier::kAuto, Precision::kFloat64, 300);
}

// --- the emitted source ------------------------------------------------------

TEST(CodegenSource, PlainC11WithOnePreludeAndOneEntryPoint) {
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      for (std::size_t lanes : {1u, 8u}) {
        SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64 " : " f32 ") +
                     std::to_string(lanes));
        const std::string src = emit_kernel_source(c.kernel, p, lanes);
        EXPECT_EQ(count_of(src, "std::"), 0u);
        EXPECT_EQ(count_of(src, "extern \"C\""), 0u);
        EXPECT_EQ(count_of(src, "<cmath>"), 0u);
        EXPECT_EQ(count_of(src, "<cstdint>"), 0u);
        EXPECT_EQ(count_of(src, "#include <math.h>"), 1u);
        // The prelude (macros, atan table, helpers) is emitted once, ahead
        // of the one entry point; no unit guard splits the source.
        EXPECT_EQ(count_of(src, "static const double citl_atan["), 1u);
        EXPECT_EQ(count_of(src, "void citl_run("), 1u);
        EXPECT_EQ(count_of(src, "citl_run_"), 0u);
        EXPECT_EQ(count_of(src, "#ifdef"), 0u);
        EXPECT_EQ(count_of(src, "CITL_UNIT"), 0u);
        EXPECT_LT(src.find("citl_atan["), src.find("void citl_run("));
      }
    }
  }
}

TEST(CodegenSource, CompilesAsStrictC11) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // Each source sits beside the portability header, as the cache lays them
  // out. The lane count only sets CITL_LANES, so 8 lanes stand for every
  // width.
  const std::string dir = ::testing::TempDir() + "citl_codegen_strict_c11";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(CITL_SIMD_PORTABILITY_HEADER,
                             dir + "/citl_simd_portability.h");
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      const std::string src = dir + "/" + c.label +
                              (p == Precision::kFloat64 ? "_f64.c" : "_f32.c");
      std::ofstream(src) << emit_kernel_source(c.kernel, p, 8);
      expect_strict_c11(dir, src);
    }
  }
}

// --- the disk cache ---------------------------------------------------------

class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_(::testing::TempDir() + name),
        inherited_(NativeKernelCache::cache_dir() == dir_) {
    // TempDir() is stable across runs — start empty so "cold" means cold. A
    // re-executed death-test child inherits the directory from its parent
    // and keeps what the parent built there.
    if (!inherited_) std::filesystem::remove_all(dir_);
    ::setenv("CITL_KERNEL_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() { ::unsetenv("CITL_KERNEL_CACHE_DIR"); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// True in a re-executed death-test child of the test that made the dir.
  [[nodiscard]] bool inherited() const noexcept { return inherited_; }

 private:
  std::string dir_;
  bool inherited_;
};

TEST(CodegenCache, ColdCompileThenWarmDiskHit) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // The last step resolves the key from a second process: a re-executed
  // child (a threadsafe death test) that re-runs this body up to that step.
  // It inherits the cache dir, by which it knows to skip the steps before.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedCacheDir cache_dir("citl_codegen_cold_warm");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  auto& cache = NativeKernelCache::global();
  if (!cache_dir.inherited()) {
    cache.clear_memory();
    const CodegenStats before = cache.stats();

    auto cold = cache.get(kernel, Precision::kFloat64, 8);
    ASSERT_NE(cold, nullptr) << cache.last_error();
    EXPECT_FALSE(cold->disk_hit());
    EXPECT_GT(cold->compile_ms(), 0.0);
    EXPECT_EQ(cache.stats().compiles, before.compiles + 1);

    // The cold build leaves exactly the source, the .so, the report and the
    // portability header: no objects, no temporaries.
    std::vector<std::string> files;
    for (const auto& e :
         std::filesystem::directory_iterator(cache_dir.dir())) {
      files.push_back(e.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    const std::string h = cold->hash();
    EXPECT_EQ(files,
              (std::vector<std::string>{h + ".c", h + ".json", h + ".so",
                                        "citl_simd_portability.h"}));
    std::ifstream report_file(cache_dir.dir() + "/" + h + ".json");
    const std::string report((std::istreambuf_iterator<char>(report_file)),
                             std::istreambuf_iterator<char>());
    EXPECT_NE(report.find("-std=c11"), std::string::npos) << report;
#ifdef CITL_SANITIZE_FLAGS
    // A sanitizer build instruments its kernels with the library's flags.
    EXPECT_NE(report.find(CITL_SANITIZE_FLAGS), std::string::npos) << report;
#endif
    // The source as the cache wrote it, hash footer included.
    expect_strict_c11(cache_dir.dir(), cache_dir.dir() + "/" + h + ".c");
    const std::string digest_key = "\"target_digest\": \"";
    const auto digest_at = report.find(digest_key);
    ASSERT_NE(digest_at, std::string::npos) << report;
    // 32 hex digits, then the closing quote.
    EXPECT_EQ(report.substr(digest_at + digest_key.size(), 33)
                  .find_first_not_of("0123456789abcdef"),
              32u)
        << report;

    // Same key, same process: served from the in-process memo.
    auto memo = cache.get(kernel, Precision::kFloat64, 8);
    EXPECT_EQ(memo.get(), cold.get());
    EXPECT_EQ(cache.stats().memo_hits, before.memo_hits + 1);

    // Drop the memo: the second resolve must come off disk with ~0 compile
    // cost (the acceptance criterion's "cache-warm second compile ≈ 0 ms").
    cold.reset();
    memo.reset();
    cache.clear_memory();
    auto warm = cache.get(kernel, Precision::kFloat64, 8);
    ASSERT_NE(warm, nullptr) << cache.last_error();
    EXPECT_TRUE(warm->disk_hit());
    EXPECT_EQ(warm->compile_ms(), 0.0);
    EXPECT_EQ(warm->hash(), h);
    EXPECT_EQ(cache.stats().compiles, before.compiles + 1);  // no recompile
    EXPECT_EQ(cache.stats().disk_hits, before.disk_hits + 1);
  }

  // The second process finds the first one's build: a disk hit that
  // compiles nothing and computes the interpreter's numbers.
  EXPECT_EXIT(
      {
        auto warm = cache.get(kernel, Precision::kFloat64, 8);
        EXPECT_NE(warm, nullptr) << cache.last_error();
        EXPECT_TRUE(warm != nullptr && warm->disk_hit());
        EXPECT_EQ(cache.stats().compiles, 0u);
        EXPECT_EQ(cache.stats().disk_hits, 1u);
        check_engine_against_one_lane(kernel, demo_oscillator_source(), 8,
                                      ExecTier::kNative, Precision::kFloat64,
                                      100);
        std::exit(::testing::Test::HasFailure() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(CodegenCache, MemoKeyIsExact) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  ScopedCacheDir cache_dir("citl_codegen_memo_key");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  const CompiledKernel base =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  const auto first = cache.get(base, Precision::kFloat64, 4);
  ASSERT_NE(first, nullptr) << cache.last_error();

  // A kernel compiled separately from the same source has the same graph:
  // a memo hit on the first one's entry, with nothing compiled or loaded.
  const CompiledKernel again =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  const CodegenStats before = cache.stats();
  EXPECT_EQ(cache.get(again, Precision::kFloat64, 4).get(), first.get());
  EXPECT_EQ(cache.stats().memo_hits, before.memo_hits + 1);
  EXPECT_EQ(cache.stats().compiles, before.compiles);
  EXPECT_EQ(cache.stats().disk_hits, before.disk_hits);

  // One variant per field of the key, each differing from `base` in that
  // field alone.
  struct Variant {
    const char* field;
    CompiledKernel kernel;
    Precision precision = Precision::kFloat64;
    std::size_t lanes = 4;
    /// Whether the emitted source prints the field. Param defaults and
    /// state initial values live in the engine's banks, not in the code,
    /// so those variants resolve to the same content hash (a disk hit).
    bool in_source = true;
  };
  const auto edited = [&](const auto& edit) {
    std::vector<Node> nodes = base.dfg.nodes();
    std::vector<StateVar> states = base.dfg.states();
    std::vector<ParamVar> params = base.dfg.params();
    edit(nodes, states, params);
    CompiledKernel k = base;
    k.dfg = Dfg::restore(std::move(nodes), std::move(states),
                         std::move(params), base.dfg.stores());
    return k;
  };
  std::vector<Variant> variants;
  variants.push_back({"constant", edited([](auto& nodes, auto&, auto&) {
                        auto it = std::find_if(
                            nodes.begin(), nodes.end(), [](const Node& n) {
                              return n.kind == OpKind::kConst;
                            });
                        it->constant += 0.5;
                      })});
  variants.push_back({"param default", edited([](auto&, auto&, auto& params) {
                        params.front().default_value *= 2.0;
                      })});
  variants.back().in_source = false;
  variants.push_back({"state initial", edited([](auto&, auto& states, auto&) {
                        states.front().initial += 1.0;
                      })});
  variants.back().in_source = false;
  variants.push_back({"stage", edited([&](auto& nodes, auto&, auto&) {
                        // The sink store may move to stage 1: nothing
                        // reads it, and its operands become pipeline edges.
                        nodes[static_cast<std::size_t>(
                                  base.dfg.stores().back())]
                            .stage = 1;
                      })});
  variants.push_back({"name", base});
  variants.back().kernel.name = "demo_oscillator_renamed";
  variants.push_back({"precision", base, Precision::kFloat32});
  variants.push_back({"lanes", base, Precision::kFloat64, 8});

  std::vector<std::string> hashes{first->hash()};
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.field);
    const CodegenStats b = cache.stats();
    const auto k = cache.get(v.kernel, v.precision, v.lanes);
    ASSERT_NE(k, nullptr) << cache.last_error();
    EXPECT_NE(k.get(), first.get());
    EXPECT_EQ(cache.stats().memo_hits, b.memo_hits);
    if (v.in_source) {
      EXPECT_EQ(std::count(hashes.begin(), hashes.end(), k->hash()), 0);
      hashes.push_back(k->hash());
    } else {
      EXPECT_EQ(k->hash(), first->hash());
      EXPECT_TRUE(k->disk_hit());
    }
    // The variant's own entry now serves it.
    EXPECT_EQ(cache.get(v.kernel, v.precision, v.lanes).get(), k.get());
    EXPECT_EQ(cache.stats().memo_hits, b.memo_hits + 1);
  }
}

TEST(CodegenCache, CorruptSharedObjectIsRepaired) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  ScopedCacheDir cache_dir("citl_codegen_corrupt");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  auto first = cache.get(kernel, Precision::kFloat32, 4);
  ASSERT_NE(first, nullptr) << cache.last_error();
  const std::string so_path =
      NativeKernelCache::cache_dir() + "/" + first->hash() + ".so";
  first.reset();
  cache.clear_memory();

  {
    std::ofstream f(so_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.good());
    f << "this is not a shared object";
  }
  const CodegenStats before = cache.stats();
  auto repaired = cache.get(kernel, Precision::kFloat32, 4);
  ASSERT_NE(repaired, nullptr) << cache.last_error();
  EXPECT_TRUE(repaired->repaired());
  EXPECT_EQ(cache.stats().repairs, before.repairs + 1);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);

  // The recompiled kernel is the real thing, not a husk: identity holds on
  // the very (f32, 4-lane) kernel that was repaired.
  check_engine_against_one_lane(kernel, demo_oscillator_source(), 4,
                                ExecTier::kNative, Precision::kFloat32, 100);
}

TEST(CodegenCache, KeyCoversTheCompilersResolvedTarget) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // Same driver, version and flag string, but one more predefined macro:
  // the stand-in for a host where -march=native resolves to another target
  // (an AVX-512 .so must never be served to an AVX2 host). Discovery is
  // memoised per process, so the wrapper runs in a re-executed child (a
  // threadsafe death test); the child re-runs this body with the wrapper
  // already resolved, hence the guard around writing it.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedCacheDir cache_dir("citl_codegen_key_probe");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  const std::string wrapper = ::testing::TempDir() + "citl_key_probe_cc";
  const std::string child_key = ::testing::TempDir() + "citl_key_probe_hash";
  if (NativeKernelCache::compiler_command() != wrapper) {
    write_compiler_wrapper(wrapper, "exec '" +
                                        NativeKernelCache::compiler_command() +
                                        "' -DCITL_KEY_PROBE=1 \"$@\"\n");
    std::filesystem::remove(child_key);
  }
  ::setenv("CITL_CODEGEN_CC", wrapper.c_str(), 1);
  EXPECT_EXIT(
      {
        auto k = NativeKernelCache::global().get(kernel, Precision::kFloat64, 1);
        if (k == nullptr) std::exit(2);
        std::ofstream(child_key) << k->hash();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("CITL_CODEGEN_CC");

  auto own = NativeKernelCache::global().get(kernel, Precision::kFloat64, 1);
  ASSERT_NE(own, nullptr) << NativeKernelCache::global().last_error();
  std::string theirs;
  std::ifstream(child_key) >> theirs;
  EXPECT_EQ(theirs.size(), own->hash().size());
  EXPECT_NE(theirs, own->hash());
}

// --- fallback ---------------------------------------------------------------

TEST(CodegenFallback, NoCompilerFallsBackToInterpreter) {
  // Compiler discovery is memoised once per process, so the no-compiler
  // case runs in a fresh one: a threadsafe death test re-executes this
  // binary, and the child inherits the bogus compiler set here (the
  // explicit override has no fallthrough).
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("CITL_CODEGEN_CC", "/nonexistent/cc", 1);
  EXPECT_EXIT(
      {
        const CompiledKernel kernel = compile_kernel(
            demo_oscillator_source(), grid_5x5(), "demo_oscillator");
        const CodegenStats before = NativeKernelCache::global().stats();
        NullSensorBus bus;
        // An explicit kNative request degrades to the interpreter and counts
        // a fallback; kAuto resolves straight to the interpreter without
        // touching the cache.
        BatchedCgraMachine explicit_native(kernel, bus, Precision::kFloat64,
                                           ExecTier::kNative);
        BatchedCgraMachine auto_tier(kernel, bus, Precision::kFloat64,
                                     ExecTier::kAuto);
        EXPECT_FALSE(NativeKernelCache::compiler_available());
        EXPECT_EQ(explicit_native.exec_tier(), ExecTier::kInterpreter);
        EXPECT_EQ(auto_tier.exec_tier(), ExecTier::kInterpreter);
        EXPECT_EQ(NativeKernelCache::global().stats().fallbacks,
                  before.fallbacks + 1);
        // And the fallback computes the interpreter's numbers bit for bit.
        check_engine_against_one_lane(kernel, demo_oscillator_source(), 1,
                                      ExecTier::kNative, Precision::kFloat64,
                                      100);
        std::exit(::testing::Test::HasFailure() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("CITL_CODEGEN_CC");
}

TEST(CodegenFallback, FailedCompileFallsBackAndCleansUp) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A compiler that passes discovery (its version and macro probes) but
  // refuses the kernel build: the kernel falls back, the error carries the
  // compiler's message, and no object, temporary or half-built .so
  // survives. Runs in a re-executed child for the same reason as the test
  // above.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedCacheDir cache_dir("citl_codegen_compile_fails");
  const std::string wrapper = ::testing::TempDir() + "citl_compile_fails_cc";
  if (NativeKernelCache::compiler_command() != wrapper) {
    write_compiler_wrapper(
        wrapper, "case \" $* \" in *\" -shared \"*)\n"
                 "  echo 'test compiler refuses the kernel' >&2; exit 1;;\n"
                 "esac\n"
                 "exec '" + NativeKernelCache::compiler_command() +
                     "' \"$@\"\n");
  }
  ::setenv("CITL_CODEGEN_CC", wrapper.c_str(), 1);
  EXPECT_EXIT(
      {
        const CompiledKernel kernel = compile_kernel(
            demo_oscillator_source(), grid_5x5(), "demo_oscillator");
        auto& cache = NativeKernelCache::global();
        const CodegenStats before = cache.stats();
        EXPECT_EQ(cache.get(kernel, Precision::kFloat64, 8), nullptr);
        EXPECT_EQ(cache.stats().fallbacks, before.fallbacks + 1);
        EXPECT_EQ(cache.stats().compiles, before.compiles);
        EXPECT_NE(cache.last_error().find("kernel compile failed"),
                  std::string::npos)
            << cache.last_error();
        EXPECT_NE(cache.last_error().find("test compiler refuses the kernel"),
                  std::string::npos)
            << cache.last_error();
        for (const auto& e :
             std::filesystem::directory_iterator(cache_dir.dir())) {
          const std::string name = e.path().filename().string();
          EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
          EXPECT_NE(e.path().extension(), ".o") << name;
          EXPECT_NE(e.path().extension(), ".so") << name;
        }
        // An engine asking for the native tier gets the memoised failure:
        // it runs the interpreter and matches an interpreter engine bit for
        // bit, lane by lane.
        std::vector<std::unique_ptr<test_support::LaneFnBus>> buses;
        std::vector<SensorBus*> fallen_buses;
        std::vector<SensorBus*> interp_buses;
        for (std::size_t l = 0; l < 8; ++l) {
          buses.push_back(std::make_unique<test_support::LaneFnBus>(l));
          fallen_buses.push_back(buses.back().get());
          buses.push_back(std::make_unique<test_support::LaneFnBus>(l));
          interp_buses.push_back(buses.back().get());
        }
        PerLaneBusAdapter fallen_bus(std::move(fallen_buses));
        PerLaneBusAdapter interp_bus(std::move(interp_buses));
        BatchedCgraMachine fallen(kernel, 8, fallen_bus, Precision::kFloat64,
                                  ExecTier::kNative);
        BatchedCgraMachine interp(kernel, 8, interp_bus, Precision::kFloat64,
                                  ExecTier::kInterpreter);
        EXPECT_EQ(fallen.exec_tier(), ExecTier::kInterpreter);
        for (int iter = 0; iter < 100; ++iter) {
          fallen.run_iteration_all_lanes();
          interp.run_iteration_all_lanes();
          for (std::size_t n = 0; n < kernel.dfg.size(); ++n) {
            for (std::size_t l = 0; l < 8; ++l) {
              const auto id = static_cast<NodeId>(n);
              ASSERT_EQ(std::bit_cast<std::uint64_t>(fallen.value(id, l)),
                        std::bit_cast<std::uint64_t>(interp.value(id, l)))
                  << "iteration " << iter << ", node " << n << ", lane " << l;
            }
          }
        }
        std::exit(::testing::Test::HasFailure() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("CITL_CODEGEN_CC");
}

// --- config threading -------------------------------------------------------

TEST(CodegenConfig, TierRoundTripsThroughWireAndDigest) {
  api::SessionConfig a = api::paper_operating_point();
  api::SessionConfig b = a;
  b.exec_tier = ExecTier::kAuto;
  EXPECT_NE(api::session_config_digest(a), api::session_config_digest(b));

  serve::WireWriter w;
  serve::encode_session_config(w, b);
  serve::WireReader r(w.bytes());
  const api::SessionConfig back = serve::decode_session_config(r);
  r.expect_end();
  EXPECT_EQ(back.exec_tier, ExecTier::kAuto);
  EXPECT_EQ(api::session_config_digest(back), api::session_config_digest(b));

  EXPECT_EQ(api::to_turnloop_config(b).exec_tier, ExecTier::kAuto);
  EXPECT_EQ(api::to_framework_config(b).exec_tier, ExecTier::kAuto);
}

TEST(CodegenConfig, TierNamesRoundTrip) {
  // The three tier values keep their wire/journal bytes and names through a
  // citl-wire-v1 round trip.
  const std::pair<ExecTier, std::string_view> tiers[] = {
      {ExecTier::kInterpreter, "interpreter"},
      {ExecTier::kNative, "native"},
      {ExecTier::kAuto, "auto"}};
  for (const auto& [tier, name] : tiers) {
    api::SessionConfig c = api::paper_operating_point();
    c.exec_tier = tier;
    serve::WireWriter w;
    serve::encode_session_config(w, c);
    serve::WireReader r(w.bytes());
    const api::SessionConfig back = serve::decode_session_config(r);
    EXPECT_EQ(back.exec_tier, tier);
    EXPECT_EQ(exec_tier_name(back.exec_tier), name);
  }
  EXPECT_EQ(static_cast<int>(ExecTier::kInterpreter), 0);
  EXPECT_EQ(static_cast<int>(ExecTier::kNative), 2);
  EXPECT_EQ(static_cast<int>(ExecTier::kAuto), 3);
}

TEST(CodegenConfig, RetiredTierByteIsRefused) {
  api::SessionConfig c = api::paper_operating_point();
  c.exec_tier = static_cast<ExecTier>(1);
  try {
    api::validate(c);
    FAIL() << "tier byte 1 was accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(e.what()).find("exec_tier"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)api::to_turnloop_config(c), ConfigError);
}

// --- the oracle over the codegen engine -------------------------------------

hil::TurnLoopConfig paper_loop(ExecTier tier) {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.2e-3);
  tl.exec_tier = tier;
  return tl;
}

TEST(CodegenOracle, SerialVsBatchedAgreeOnNativeEngine) {
  // Both fidelities execute through the resolved kAuto tier (native when a
  // compiler exists, the interpreter otherwise) — the oracle must see them
  // exactly bit-equal, same as the interpreted pair it was built on.
  oracle::OracleConfig oc;
  oc.reference = oracle::Fidelity::kSerialF32;
  oc.candidate = oracle::Fidelity::kBatchedF32;
  oc.turns = 600;
  const oracle::OracleReport rep =
      run_oracle(paper_loop(ExecTier::kAuto), oc);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.first_divergent_turn, -1);
  EXPECT_EQ(rep.max_ulp_err, 0.0);
}

TEST(CodegenOracle, StridedScanFindsPoisonedConstantOnNativeEngine) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A one-ULP poisoned sample-rate literal on the candidate side, both
  // sides running the native tier: the checkpoint, the rollback and the
  // scan must localise the first divergent turn on compiled machines too.
  // It lies past the first windows (turn 344, as on the interpreter), so
  // the strided run restores the checkpoint at turn 320.
  const hil::TurnLoopConfig tl = paper_loop(ExecTier::kNative);
  const hil::TurnLoop probe(tl);
  auto perturbed = std::make_shared<const CompiledKernel>(
      oracle::perturb_kernel_constant(probe.kernel(), tl.kernel.sample_rate_hz,
                                      Precision::kFloat32));
  oracle::OracleConfig oc;
  oc.reference = oracle::Fidelity::kSerialF32;
  oc.candidate = oracle::Fidelity::kSerialF32;
  oc.candidate_kernel = perturbed;
  oc.turns = 1200;
  oc.checkpoint_stride = 64;
  oc.shrink = false;
  const oracle::OracleReport strided = run_oracle(tl, oc);
  oc.checkpoint_stride = 1;
  const oracle::OracleReport dense = run_oracle(tl, oc);
  ASSERT_TRUE(strided.diverged);
  ASSERT_TRUE(dense.diverged);
  EXPECT_EQ(strided.first_divergent_turn, 344);
  EXPECT_EQ(dense.first_divergent_turn, 344);
}

// --- the sweep engine on the native tier ------------------------------------

TEST(CodegenSweep, BatchedFrameworkSweepLoadsOneNativeKernel) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A chunk of frameworks runs on the chunk's machine alone: no framework
  // builds, and natively compiles, a one-lane engine it never runs.
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  fc.exec_tier = ExecTier::kNative;
  sweep::SweepConfig config;
  config.threads = 1;
  config.batch_lanes = 2;
  config.scenarios = sweep::ScenarioGridBuilder::sample_accurate(fc)
                         .gains({-3, -5})
                         .duration_s(0.05e-3)
                         .build();

  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  const CodegenStats before = cache.stats();
  const sweep::SweepResult r = sweep::run_sweep(config);
  const CodegenStats after = cache.stats();
  EXPECT_EQ(r.batch_chunks, 1u);
  EXPECT_GT(r.scenarios[0].metrics.cgra_runs, 0);
  EXPECT_EQ(after.compiles + after.disk_hits,
            before.compiles + before.disk_hits + 1);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
}

/// A turn-level grid at the paper's operating point on `tier`: gains x jump
/// amplitudes, equal durations.
sweep::SweepConfig turn_level_grid(ExecTier tier, std::vector<double> gains,
                                   std::vector<double> jumps_deg) {
  api::SessionConfig sc = api::paper_operating_point();
  sc.exec_tier = tier;
  sweep::SweepConfig config;
  config.threads = 2;
  config.scenarios =
      sweep::ScenarioGridBuilder::turn_level(api::to_turnloop_config(sc))
          .gains(std::move(gains))
          .jump_amplitudes_deg(std::move(jumps_deg))
          .jump_timing(1.0, 0.2e-3)
          .duration_s(0.5e-3)
          .build();
  return config;
}

TEST(CodegenSweep, UnevenLaneEndsMatchInterpreter) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // Lanes of a native chunk that end apart run their remaining passes
  // lane-masked on the interpreter, between native full-width passes over
  // the same banks. Reports and traces must equal a one-lane interpreted
  // run's, byte for byte.
  obs::Registry& reg = obs::Registry::global();
  const bool reg_was_enabled = reg.enabled();
  reg.set_enabled(true);
  const obs::Counter& interpreted =
      reg.counter("cgra.exec.iterations.interpreter");
  const obs::Counter& native = reg.counter("cgra.exec.iterations.native");

  sweep::SweepConfig reference =
      turn_level_grid(ExecTier::kInterpreter, {-3, -5}, {4, 6, 8, 10});
  sweep::SweepConfig uneven =
      turn_level_grid(ExecTier::kNative, {-3, -5}, {4, 6, 8, 10});
  for (std::size_t i = 0; i < uneven.scenarios.size(); ++i) {
    const double duration_s = 0.3e-3 + 0.05e-3 * static_cast<double>(i);
    reference.scenarios[i].duration_s = duration_s;
    uneven.scenarios[i].duration_s = duration_s;
  }
  reference.batch_lanes = 0;
  uneven.batch_lanes = 4;
  const sweep::SweepResult want = sweep::run_sweep(reference);
  const std::uint64_t interpreted_before = interpreted.value();
  const std::uint64_t native_before = native.value();
  const sweep::SweepResult got = sweep::run_sweep(uneven);
  EXPECT_EQ(got.batch_chunks, 2u);
  EXPECT_GE(interpreted.value() - interpreted_before, 1u);
  EXPECT_GE(native.value() - native_before, 1u);
  EXPECT_EQ(sweep::metrics_csv(got), sweep::metrics_csv(want));
  EXPECT_EQ(sweep::metrics_json(got), sweep::metrics_json(want));
  ASSERT_EQ(got.scenarios.size(), want.scenarios.size());
  for (std::size_t i = 0; i < got.scenarios.size(); ++i) {
    EXPECT_FALSE(got.scenarios[i].trace_phase_rad.empty());
    EXPECT_EQ(got.scenarios[i].trace_time_s, want.scenarios[i].trace_time_s)
        << got.scenarios[i].name;
    EXPECT_EQ(got.scenarios[i].trace_phase_rad,
              want.scenarios[i].trace_phase_rad)
        << got.scenarios[i].name;
  }

  // Shaped like perfbench's sweep_grid (equal durations, 8 lanes, native):
  // every pass is full-width and native, none leaves the compiled kernel.
  sweep::SweepConfig lockstep =
      turn_level_grid(ExecTier::kNative, {-3, -4, -5, -6}, {4, 6, 8, 10});
  lockstep.batch_lanes = 8;
  lockstep.collect_traces = false;
  const obs::Counter& passes = reg.counter("cgra.batch.iterations");
  const obs::Counter& lane_passes = reg.counter("cgra.batch.lane_iterations");
  const std::uint64_t interpreted_start = interpreted.value();
  const std::uint64_t native_start = native.value();
  const std::uint64_t passes_start = passes.value();
  const std::uint64_t lane_passes_start = lane_passes.value();
  const sweep::SweepResult grid = sweep::run_sweep(lockstep);
  EXPECT_EQ(grid.batch_chunks, 2u);
  EXPECT_EQ(interpreted.value() - interpreted_start, 0u);
  EXPECT_GT(passes.value() - passes_start, 0u);
  EXPECT_EQ(native.value() - native_start, passes.value() - passes_start);
  EXPECT_EQ(lane_passes.value() - lane_passes_start,
            8 * (passes.value() - passes_start));
  reg.set_enabled(reg_was_enabled);
}

}  // namespace
}  // namespace citl::cgra
