// The source evaluator (cgra/source_eval.hpp): the kernel source evaluated
// in binary64, held bit for bit to the f64 engine on every stock and
// example kernel on both tiers; and the language rules (docs/LANGUAGE.md)
// that the lowering, every execution path and the evaluator must share —
// constant folding, the sign of a -0.0 literal, min/max zero ties and
// pipeline-register timing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/codegen.hpp"
#include "cgra/exec.hpp"
#include "cgra/kernels.hpp"
#include "cgra/lower.hpp"
#include "cgra/schedule.hpp"
#include "cgra/source_eval.hpp"
#include "core/error.hpp"
#include "engine_check.hpp"

namespace citl::cgra {
namespace {

using test_support::bits;

// --- every stock and example kernel, on both tiers -------------------------

struct StockKernel {
  std::string label;
  std::string source;
  CgraArch arch;
};

std::string read_example_kernel(const std::string& file) {
  std::ifstream in(std::string(CITL_EXAMPLE_KERNELS_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<StockKernel> stock_kernels() {
  std::vector<StockKernel> out;
  for (const bool pipelined : {false, true}) {
    for (const int bunches : {1, 4}) {
      BeamKernelConfig kc;
      kc.pipelined = pipelined;
      kc.n_bunches = bunches;
      const std::string tag =
          std::to_string(bunches) + (pipelined ? "_pipelined" : "_plain");
      out.push_back({"sampled_" + tag, beam_kernel_source(kc), grid_5x5()});
      out.push_back(
          {"analytic_" + tag, analytic_beam_kernel_source(kc), grid_5x5()});
      out.push_back({"ramp_" + tag, ramp_beam_kernel_source(kc), grid_5x5()});
    }
  }
  out.push_back({"demo_oscillator", demo_oscillator_source(), grid_5x5()});
  out.push_back({"cavity_iq_servo", cavity_iq_servo_source(), grid_4x4()});
  for (const char* name : {"cavity_iq_servo", "lorenz", "pll"}) {
    out.push_back({std::string("example_") + name,
                   read_example_kernel(std::string(name) + ".c"), grid_4x4()});
  }
  return out;
}

void PrintTo(const StockKernel& k, std::ostream* os) { *os << k.label; }

class SourceEvalStock : public ::testing::TestWithParam<StockKernel> {};

TEST_P(SourceEvalStock, MatchesF64EngineOnBothTiers) {
  const StockKernel& k = GetParam();
  const CompiledKernel kernel = compile_kernel(k.source, k.arch, k.label);
  for (const ExecTier tier : {ExecTier::kInterpreter, ExecTier::kNative}) {
    SCOPED_TRACE(exec_tier_name(tier));
    test_support::check_engine_against_one_lane(kernel, k.source, 1, tier,
                                                Precision::kFloat64, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SourceEvalStock, ::testing::ValuesIn(stock_kernels()),
    [](const ::testing::TestParamInfo<StockKernel>& param_info) {
      return param_info.param.label;
    });

// --- the evaluator as a BeamModel ------------------------------------------

TEST(SourceEval, SnapshotRestoreReplaysStatesAndPipelineRegisters) {
  BeamKernelConfig kc;
  kc.pipelined = true;
  kc.n_bunches = 2;
  const std::string source = beam_kernel_source(kc);
  const auto kernel = std::make_shared<const CompiledKernel>(
      compile_kernel(source, grid_5x5(), "beam_sampled"));
  test_support::LaneFnBus bus(0);
  SourceEvaluator ev(kernel, source, bus);
  EXPECT_EQ(ev.lanes(), 1u);
  // One register per voltage stage 1 reads: V_R and V_j for two bunches.
  ASSERT_EQ(ev.pipe_reg_count(), 3u);
  for (int i = 0; i < 5; ++i) ev.run_iteration_all_lanes();

  std::vector<double> states(ev.state_count()), regs(ev.pipe_reg_count());
  ev.snapshot_states(0, states.data());
  ev.snapshot_pipe_regs(0, regs.data());
  const std::size_t mark = bus.log.size();
  for (int i = 0; i < 5; ++i) ev.run_iteration_all_lanes();
  const std::vector<std::uint64_t> first(bus.log.begin() + mark,
                                         bus.log.end());
  std::vector<double> after(ev.state_count());
  ev.snapshot_states(0, after.data());

  ev.restore_states(0, states.data());
  ev.restore_pipe_regs(0, regs.data());
  const std::size_t mark2 = bus.log.size();
  for (int i = 0; i < 5; ++i) ev.run_iteration_all_lanes();
  const std::vector<std::uint64_t> replay(bus.log.begin() + mark2,
                                          bus.log.end());
  EXPECT_EQ(first, replay);
  std::vector<double> again(ev.state_count());
  ev.snapshot_states(0, again.data());
  for (std::size_t s = 0; s < after.size(); ++s) {
    EXPECT_EQ(bits(after[s]), bits(again[s])) << "state " << s;
  }

  ev.reset();
  EXPECT_EQ(ev.state(ev.state_handle("gamma_r"), 0), kc.gamma0);
  EXPECT_EQ(ev.param(ev.param_handle("v_scale"), 0), kc.v_scale);
}

TEST(SourceEval, RejectsBadHandlesLanesAndMismatchedSources) {
  const std::string source = demo_oscillator_source();
  const auto kernel = std::make_shared<const CompiledKernel>(
      compile_kernel(source, grid_5x5(), "demo_oscillator"));
  NullSensorBus bus;
  SourceEvaluator ev(kernel, source, bus);
  EXPECT_THROW(ev.set_param(ParamHandle{}, 1.0, 0), ConfigError);
  EXPECT_THROW((void)ev.state(StateHandle{7}, 0), ConfigError);
  EXPECT_THROW((void)ev.state(ev.state_handle("x"), 1), ConfigError);
  // The source must declare exactly the kernel's params and states.
  EXPECT_THROW((void)SourceEvaluator(kernel, "state float x = 1.0;", bus),
               ConfigError);
  EXPECT_THROW((void)SourceEvaluator(
                   kernel, source + "state float extra = 0.0;\n", bus),
               ConfigError);
  EXPECT_THROW(
      (void)SourceEvaluator(kernel, source + "float y = nope;\n", bus),
      CompileError);
}

// --- language rules shared by every path ------------------------------------

/// The states of a kernel after `iterations` iterations on one path.
struct PathStates {
  std::string path;
  std::vector<double> states;
};

/// Runs `source` on every execution path: the interpreter and the one-lane
/// cycle-accurate walk in both precisions, the source evaluator (binary64)
/// and, with `native`, the native tier at 1 and 8 lanes in both precisions
/// (lane 0 reported).
std::vector<PathStates> run_on_every_path(const std::string& source,
                                          int iterations, bool native) {
  const auto kernel = std::make_shared<const CompiledKernel>(
      compile_kernel(source, grid_4x4()));
  std::vector<PathStates> out;
  auto snapshot = [&](const std::string& path, const BeamModel& m) {
    PathStates ps{path, std::vector<double>(m.state_count())};
    m.snapshot_states(0, ps.states.data());
    out.push_back(std::move(ps));
  };
  NullSensorBus bus;
  for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
    const std::string prec = p == Precision::kFloat64 ? " f64" : " f32";
    BatchedCgraMachine interp(*kernel, bus, p);
    BatchedCgraMachine walk(*kernel, bus, p);
    for (int i = 0; i < iterations; ++i) {
      interp.run_iteration();
      walk.run_iteration_cycle_accurate();
    }
    snapshot("interpreter" + prec, interp);
    snapshot("walk" + prec, walk);
    if (!native || !NativeKernelCache::compiler_available()) continue;
    for (const std::size_t lanes : {1u, 8u}) {
      PerLaneBusAdapter buses(std::vector<SensorBus*>(lanes, &bus));
      BatchedCgraMachine nat(*kernel, lanes, buses, p, ExecTier::kNative);
      for (int i = 0; i < iterations; ++i) nat.run_iteration_all_lanes();
      snapshot("native x" + std::to_string(lanes) + prec, nat);
    }
  }
  SourceEvaluator ev(kernel, source, bus);
  for (int i = 0; i < iterations; ++i) ev.run_iteration_all_lanes();
  snapshot("evaluator", ev);
  return out;
}

TEST(PeMinMax, SignedZeroTieIsTheSameOnEveryPath) {
  // -1.0 * p is -0.0 at run time: each min/max sees a tie of two zeros of
  // opposite sign, in both operand orders. -0 orders below +0.
  const std::string source =
      "param float p = 0.0;\n"
      "state float min_np = 1.0;\n"
      "state float min_pn = 1.0;\n"
      "state float max_np = 1.0;\n"
      "state float max_pn = 1.0;\n"
      "min_np = fminf(-1.0 * p, p);\n"
      "min_pn = fminf(p, -1.0 * p);\n"
      "max_np = fmaxf(-1.0 * p, p);\n"
      "max_pn = fmaxf(p, -1.0 * p);\n";
  const std::uint64_t neg = bits(-0.0), pos = bits(0.0);
  for (const PathStates& ps : run_on_every_path(source, 1, true)) {
    SCOPED_TRACE(ps.path);
    ASSERT_EQ(ps.states.size(), 4u);
    EXPECT_EQ(bits(ps.states[0]), neg) << "fminf(-0, +0)";
    EXPECT_EQ(bits(ps.states[1]), neg) << "fminf(+0, -0)";
    EXPECT_EQ(bits(ps.states[2]), pos) << "fmaxf(-0, +0)";
    EXPECT_EQ(bits(ps.states[3]), pos) << "fmaxf(+0, -0)";
  }
}

TEST(PeMinMax, NanOperandLosesToANumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(detail::pe_min(nan, 2.0), 2.0);
  EXPECT_EQ(detail::pe_min(2.0, nan), 2.0);
  EXPECT_EQ(detail::pe_max(nan, -2.0), -2.0);
  EXPECT_EQ(detail::pe_max(-2.0f, std::numeric_limits<float>::quiet_NaN()),
            -2.0f);
  EXPECT_TRUE(std::isnan(detail::pe_min(nan, nan)));
  EXPECT_EQ(detail::pe_min(-3.0, 1.0), -3.0);
  EXPECT_EQ(detail::pe_max(-3.0, 1.0), 1.0);
}

TEST(LanguageRules, NegativeZeroLiteralKeepsItsSign) {
  // The literal +0.0 is lowered first (as 0.0 under the unary minus), so a
  // constant table that dedupes by value would fold -0.0 into it.
  const std::string source =
      "param float p = 1.0;\n"
      "state float s = 0.0;\n"
      "s = 1.0 / (-0.0 * p);\n";
  for (const PathStates& ps : run_on_every_path(source, 1, false)) {
    SCOPED_TRACE(ps.path);
    EXPECT_EQ(ps.states[0], -std::numeric_limits<double>::infinity());
  }
}

TEST(LanguageRules, ConstantMinMaxFold) {
  // A folded constant is served to stage 1 directly; an unfolded min/max
  // would be a stage-0 operator whose value reaches stage 1 one iteration
  // late (s == 1.0 after the first iteration instead of 1.5).
  for (const std::string call : {"fminf(0.5, 1.0)", "fmaxf(0.25, 0.5)"}) {
    SCOPED_TRACE(call);
    const std::string source = "state float s = 0.0;\nfloat t = " + call +
                               ";\npipeline_split();\ns = t + 1.0;\n";
    const Dfg dfg = compile_to_dfg(source);
    for (const Node& n : dfg.nodes()) {
      EXPECT_NE(n.kind, OpKind::kMin);
      EXPECT_NE(n.kind, OpKind::kMax);
    }
    for (const PathStates& ps : run_on_every_path(source, 1, false)) {
      SCOPED_TRACE(ps.path);
      EXPECT_EQ(ps.states[0], 1.5);
    }
  }
}

TEST(LanguageRules, SinAndCosOfAConstantFoldWithTheHostLibm) {
  // A constant argument folds with the host libm; a run-time argument goes
  // through the PE's CORDIC, which differs in the last bits.
  const std::string folded =
      "state float s = 0.0;\nstate float c = 0.0;\ns = sinf(0.3);\n"
      "c = cosf(0.3);\n";
  const std::string runtime =
      "param float x = 0.3;\nstate float s = 0.0;\nstate float c = 0.0;\n"
      "s = sinf(x);\nc = cosf(x);\n";
  for (const PathStates& ps : run_on_every_path(folded, 1, false)) {
    if (ps.path.find("f32") != std::string::npos) continue;
    SCOPED_TRACE(ps.path);
    EXPECT_EQ(bits(ps.states[0]), bits(std::sin(0.3)));
    EXPECT_EQ(bits(ps.states[1]), bits(std::cos(0.3)));
  }
  double cordic_sin = 0.0, cordic_cos = 0.0;
  detail::cordic_rotate(0.3, &cordic_cos, &cordic_sin);
  EXPECT_NE(cordic_sin, std::sin(0.3));
  for (const PathStates& ps : run_on_every_path(runtime, 1, false)) {
    if (ps.path.find("f32") != std::string::npos) continue;
    SCOPED_TRACE(ps.path);
    EXPECT_EQ(bits(ps.states[0]), bits(cordic_sin));
    EXPECT_EQ(bits(ps.states[1]), bits(cordic_cos));
  }
}

TEST(LanguageRules, DivisionByZeroAndNegativeSqrtAreLeftToRunTime) {
  const std::string source =
      "state float q = 0.0;\nstate float r = 0.0;\n"
      "q = 1.0 / 0.0;\nr = sqrtf(0.0 - 4.0);\n";
  const Dfg dfg = compile_to_dfg(source);
  EXPECT_EQ(dfg.count_class(OpClass::kDivSqrt), 2u);
  for (const PathStates& ps : run_on_every_path(source, 1, false)) {
    SCOPED_TRACE(ps.path);
    EXPECT_EQ(ps.states[0], std::numeric_limits<double>::infinity());
    EXPECT_TRUE(std::isnan(ps.states[1]));
  }
}

TEST(LanguageRules, StageZeroValueAssignedAsIsArrivesUndelayed) {
  // A state bound to a stage-0 value takes this iteration's value; a
  // stage-1 operator on it reads the pipeline register (last iteration's).
  const std::string head =
      "param float p = 2.0;\nstate float s = 0.0;\nfloat t = p * 1.0;\n"
      "pipeline_split();\n";
  for (const PathStates& ps : run_on_every_path(head + "s = t;\n", 1, false)) {
    SCOPED_TRACE(ps.path);
    EXPECT_EQ(ps.states[0], 2.0);
  }
  for (const int iterations : {1, 2}) {
    for (const PathStates& ps :
         run_on_every_path(head + "s = t + 0.0;\n", iterations, false)) {
      SCOPED_TRACE(ps.path + " after " + std::to_string(iterations));
      EXPECT_EQ(ps.states[0], iterations == 1 ? 0.0 : 2.0);
    }
  }
}

TEST(LanguageRules, StoresKeepProgramOrderAcrossTheSplit) {
  // The stage-1 store's operands are constants, ready before the stage-0
  // store's multiply; program order still puts the stage-0 write first.
  const std::string source =
      "param float p = 3.0;\nstate float s = 0.0;\nfloat t = p * 2.0;\n"
      "sensor_write(294912.0, t);\npipeline_split();\n"
      "sensor_write(294913.0, 7.0);\ns = t;\n";
  const auto kernel = std::make_shared<const CompiledKernel>(
      compile_kernel(source, grid_4x4()));
  for (const ExecTier tier : {ExecTier::kInterpreter, ExecTier::kNative}) {
    for (const std::size_t lanes : {1u, 3u}) {
      SCOPED_TRACE(std::string(exec_tier_name(tier)) + " x" +
                   std::to_string(lanes));
      test_support::check_engine_against_one_lane(
          *kernel, source, lanes, tier, Precision::kFloat64, 5);
    }
  }
  test_support::LaneFnBus walk_bus(0), eval_bus(0);
  BatchedCgraMachine walk(*kernel, walk_bus, Precision::kFloat64);
  SourceEvaluator ev(kernel, source, eval_bus);
  for (int i = 0; i < 3; ++i) {
    walk.run_iteration_cycle_accurate();
    ev.run_iteration_all_lanes();
  }
  EXPECT_EQ(walk_bus.log, eval_bus.log) << "cycle-accurate write order";
}

}  // namespace
}  // namespace citl::cgra
