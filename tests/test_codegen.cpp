// The kernel execution tiers (interpreter / native codegen): bit identity
// of the native tier for every kernel and precision at one lane and with
// masked lanes, the disk cache's cold, warm and corrupt-artifact paths, the
// no-compiler fallback, config threading over the wire, and the
// differential oracle bisecting over natively compiled engines. Every lane
// is held to the one-lane cycle-accurate walk (values and states) and the
// one-lane interpreter (bus write order) — engine_check.hpp. Every suite
// name starts with "Codegen" so CI can run the subsystem alone with
// --gtest_filter='Codegen*'.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
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
#include "hil/turnloop.hpp"
#include "oracle/oracle.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "serve/wire.hpp"

namespace citl::cgra {
namespace {

using test_support::check_engine_against_one_lane;

struct KernelCase {
  std::string label;
  CompiledKernel kernel;
};

/// Every kernel family the repo ships, including the CORDIC-heavy codegen
/// showcase (the bench headline workload).
std::vector<KernelCase> kernel_cases() {
  BeamKernelConfig kc;  // defaults: 14N7+, SIS18, gamma0 = 1.2
  std::vector<KernelCase> cases;

  BeamKernelConfig pipelined = kc;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  cases.push_back({"sampled_pipelined",
                   compile_kernel(beam_kernel_source(pipelined), grid_5x5(),
                                  "beam_sampled")});
  cases.push_back({"analytic",
                   compile_kernel(analytic_beam_kernel_source(kc), grid_5x5(),
                                  "beam_analytic")});
  cases.push_back({"ramp",
                   compile_kernel(ramp_beam_kernel_source(kc), grid_5x5(),
                                  "beam_ramp")});
  cases.push_back({"demo",
                   compile_kernel(demo_oscillator_source(), grid_5x5(),
                                  "demo_oscillator")});
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  return cases;
}

bool native_available() { return NativeKernelCache::compiler_available(); }

// --- identity: every kernel x precision ------------------------------------

TEST(CodegenIdentity, NativeMatchesInterpreterEveryKernel) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      check_engine_against_one_lane(c.kernel, 1, ExecTier::kNative, p, 300);
      ASSERT_EQ(NativeKernelCache::global().stats().fallbacks, 0u);
    }
  }
}

TEST(CodegenIdentity, BatchedMaskedLanesMatchInterpreter) {
  // The 8-lane engine spot-checks the bench headline kernel and the
  // pipelined beam kernel (the masked path plus pipeline-register latching);
  // the one-lane test above covers the full kernel matrix.
  BeamKernelConfig pipelined;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  std::vector<KernelCase> cases;
  cases.push_back({"sampled_pipelined",
                   compile_kernel(beam_kernel_source(pipelined), grid_5x5(),
                                  "beam_sampled")});
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  for (const KernelCase& c : cases) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      check_engine_against_one_lane(c.kernel, 8, ExecTier::kNative, p, 150);
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
  check_engine_against_one_lane(kernel, 1, ExecTier::kAuto, Precision::kFloat64,
                                300);
}

// --- the disk cache ---------------------------------------------------------

class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_(::testing::TempDir() + name) {
    // TempDir() is stable across runs — start empty so "cold" means cold.
    std::filesystem::remove_all(dir_);
    ::setenv("CITL_KERNEL_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() { ::unsetenv("CITL_KERNEL_CACHE_DIR"); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

TEST(CodegenCache, ColdCompileThenWarmDiskHit) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  ScopedCacheDir cache_dir("citl_codegen_cold_warm");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  const CodegenStats before = cache.stats();

  auto cold = cache.get(kernel, Precision::kFloat64, 8);
  ASSERT_NE(cold, nullptr) << cache.last_error();
  EXPECT_FALSE(cold->disk_hit());
  EXPECT_GT(cold->compile_ms(), 0.0);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);

  // Same key, same process: served from the in-process memo.
  auto memo = cache.get(kernel, Precision::kFloat64, 8);
  EXPECT_EQ(memo.get(), cold.get());
  EXPECT_EQ(cache.stats().memo_hits, before.memo_hits + 1);

  // Drop the memo: the second resolve must come off disk with ~0 compile
  // cost (the acceptance criterion's "cache-warm second compile ≈ 0 ms").
  const std::string hash = cold->hash();
  cold.reset();
  memo.reset();
  cache.clear_memory();
  auto warm = cache.get(kernel, Precision::kFloat64, 8);
  ASSERT_NE(warm, nullptr) << cache.last_error();
  EXPECT_TRUE(warm->disk_hit());
  EXPECT_EQ(warm->compile_ms(), 0.0);
  EXPECT_EQ(warm->hash(), hash);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);  // no recompile
  EXPECT_EQ(cache.stats().disk_hits, before.disk_hits + 1);
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
  check_engine_against_one_lane(kernel, 4, ExecTier::kNative,
                                Precision::kFloat32, 100);
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
        check_engine_against_one_lane(kernel, 1, ExecTier::kNative,
                                      Precision::kFloat64, 100);
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

TEST(CodegenOracle, BisectionFindsPoisonedConstantOnNativeEngine) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A one-ULP poisoned constant on the candidate side, both sides running
  // the native tier: the bisection machinery (checkpoint, rollback, scan)
  // must localise the first divergent turn on compiled machines too.
  const hil::TurnLoopConfig tl = paper_loop(ExecTier::kNative);
  const hil::TurnLoop probe(tl);
  auto perturbed = std::make_shared<const CompiledKernel>(
      oracle::perturb_kernel_constant(probe.kernel(),
                                      tl.kernel.ring.circumference_m,
                                      Precision::kFloat32));
  oracle::OracleConfig oc;
  oc.reference = oracle::Fidelity::kSerialF32;
  oc.candidate = oracle::Fidelity::kSerialF32;
  oc.candidate_kernel = perturbed;
  oc.turns = 1200;
  oc.checkpoint_stride = 64;
  oc.shrink = false;
  const oracle::OracleReport rep = run_oracle(tl, oc);
  ASSERT_TRUE(rep.diverged);
  EXPECT_GE(rep.first_divergent_turn, 0);
  EXPECT_EQ(rep.first_divergent_turn, rep.bisected_turn);
}

}  // namespace
}  // namespace citl::cgra
