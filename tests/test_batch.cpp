// Lane-parallel CGRA execution: bit-identity of every lane to one-lane
// references (values, states and pipeline registers against the
// cycle-accurate walk, bus write order against the one-lane interpreter; per
// kernel, per precision), lane masking, the handle-based model API, unified
// error reporting, and byte-identity of batched sweep reports.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "engine_check.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace citl::cgra {
namespace {

using test_support::LaneFnBus;

struct KernelCase {
  std::string label;
  CompiledKernel kernel;
};

std::vector<KernelCase> kernel_cases() {
  BeamKernelConfig kc;  // defaults: 14N7+, SIS18, gamma0 = 1.2
  std::vector<KernelCase> cases;

  BeamKernelConfig pipelined = kc;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  cases.push_back({"sampled_pipelined",
                   compile_kernel(beam_kernel_source(pipelined), grid_5x5(),
                                  "beam_sampled")});

  BeamKernelConfig flat = kc;
  flat.interpolate = false;
  cases.push_back({"sampled_flat",
                   compile_kernel(beam_kernel_source(flat), grid_5x5(),
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
  return cases;
}

// Every lane against its own one-lane references (engine_check.hpp): node
// values, states and pipeline registers against the cycle-accurate walk,
// the bus write log against the interpreter; full-width and masked steps.
TEST(Batch, LockstepMatchesSerialEveryKernelFloat32) {
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(
        c.kernel, 5, ExecTier::kInterpreter, Precision::kFloat32, 40);
  }
}

TEST(Batch, LockstepMatchesSerialEveryKernelFloat64) {
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(
        c.kernel, 5, ExecTier::kInterpreter, Precision::kFloat64, 40);
  }
}

TEST(Batch, LockstepMatchesCycleAccurateSingleLane) {
  // The functional/cycle-accurate equivalence holds at every width,
  // including the one-lane engine every closed loop owns.
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(
        c.kernel, 1, ExecTier::kInterpreter, Precision::kFloat32, 40);
  }
}

TEST(Batch, PartialLanesMatchSerialAndPreserveParkedState) {
  BeamKernelConfig kc;
  kc.pipelined = true;  // exercises the lane-masked pipeline-register latch
  kc.n_bunches = 2;
  const CompiledKernel kernel =
      compile_kernel(beam_kernel_source(kc), grid_5x5(), "beam_sampled");

  // One-lane cycle-accurate references.
  LaneFnBus serial_bus0(0), serial_bus1(1);
  BatchedCgraMachine m0(kernel, serial_bus0), m1(kernel, serial_bus1);

  LaneFnBus b0(0), b1(1);
  PerLaneBusAdapter adapter({&b0, &b1});
  BatchedCgraMachine batched(kernel, 2, adapter);

  const StateHandle dt0 = batched.state_handle("dt0");
  // Lane 0 runs every round; lane 1 only every third round — like a sweep
  // lane whose scenario parks between reference crossings.
  for (int round = 0; round < 30; ++round) {
    const bool lane1_runs = round % 3 == 0;
    if (lane1_runs) {
      batched.run_iteration_all_lanes();
      m0.run_iteration_cycle_accurate();
      m1.run_iteration_cycle_accurate();
    } else {
      const std::uint32_t only0 = 0;
      batched.run_iteration_lanes(&only0, 1);
      m0.run_iteration_cycle_accurate();
    }
    if (round == 10) {
      // External writes to the parked lane must survive masked iterations.
      batched.set_state(dt0, 123.0e-9, 1);
      m1.set_state(dt0, 123.0e-9, 0);
    }
  }

  for (std::size_t i = 0; i < kernel.dfg.states().size(); ++i) {
    const StateHandle h{static_cast<int>(i)};
    EXPECT_EQ(m0.state(h, 0), batched.state(h, 0));
    EXPECT_EQ(m1.state(h, 0), batched.state(h, 1));
  }
  EXPECT_EQ(batched.lane_iterations()[0], 30u);
  EXPECT_EQ(batched.lane_iterations()[1], 10u);
  EXPECT_EQ(batched.iterations(), 30u);
}

TEST(Batch, HandleRoundTripAndQuantisation) {
  const CompiledKernel k = compile_kernel(
      "param float gain = 2.0;\n"
      "state float y = 1.0;\n"
      "y = y * gain;\n",
      grid_3x3(), "roundtrip");
  LaneFnBus bus0(0), bus1(1), bus2(2);
  PerLaneBusAdapter adapter({&bus0, &bus1, &bus2});
  BatchedCgraMachine b(k, 3, adapter);

  const ParamHandle gain = b.param_handle("gain");
  const StateHandle y = b.state_handle("y");
  ASSERT_TRUE(gain.valid());
  ASSERT_TRUE(y.valid());

  // Writes quantise to the working precision (binary32 by default), exactly
  // like the single-lane machine's register file.
  b.set_param(gain, 1.1, 1);
  EXPECT_EQ(b.param(gain, 1), static_cast<double>(1.1f));
  EXPECT_EQ(b.param(gain, 0), 2.0);  // untouched lanes keep the default

  b.set_state(y, 0.3, 2);
  EXPECT_EQ(b.state(y, 2), static_cast<double>(0.3f));

  b.run_iteration_all_lanes();
  EXPECT_EQ(b.state(y, 0), 2.0);
  EXPECT_EQ(b.state(y, 1),
            static_cast<double>(1.0f * static_cast<float>(1.1f)));

  // reset() restores initial states and default params on every lane.
  b.reset();
  EXPECT_EQ(b.param(gain, 1), 2.0);
  EXPECT_EQ(b.state(y, 2), 1.0);
  EXPECT_EQ(b.iterations(), 0u);

  // Non-throwing lookups signal absence through invalid handles.
  EXPECT_FALSE(find_param(k, "nope").valid());
  EXPECT_FALSE(find_state(k, "nope").valid());
}

TEST(Batch, ErrorsNameKernelAndOffendingKey) {
  const CompiledKernel k = compile_kernel(
      "state float n = 0.0;\n"
      "n = n + 1.0;\n",
      grid_3x3(), "counter_kernel");
  NullSensorBus null_bus;
  BatchedCgraMachine m(k, null_bus);

  // Unknown names: ConfigError carrying the kernel name and the key, and
  // catchable through the citl::Error base.
  try {
    (void)param_handle(k, "missing_param");
    FAIL() << "expected ConfigError";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing_param"), std::string::npos) << what;
    EXPECT_NE(what.find("counter_kernel"), std::string::npos) << what;
  }
  EXPECT_THROW((void)state_handle(k, "missing_state"), ConfigError);
  EXPECT_THROW(api::set_kernel_param(m, "missing_param", 1.0), Error);
  EXPECT_THROW((void)api::kernel_state(m, "missing_state"), Error);

  // Lane-count mismatches name the kernel and the offending lane count.
  const StateHandle n = m.state_handle("n");
  try {
    m.set_state(n, 1.0, 3);
    FAIL() << "expected ConfigError";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lane 3"), std::string::npos) << what;
    EXPECT_NE(what.find("counter_kernel"), std::string::npos) << what;
  }

  LaneFnBus bus0(0), bus1(1);
  PerLaneBusAdapter adapter({&bus0, &bus1});
  BatchedCgraMachine b(k, 2, adapter);
  EXPECT_THROW((void)b.state(n, 2), ConfigError);
  EXPECT_THROW(b.set_state(StateHandle{}, 1.0, 0), ConfigError);
  EXPECT_THROW(b.set_param(ParamHandle{7}, 1.0, 0), ConfigError);

  // A batched machine with zero lanes is a configuration error.
  EXPECT_THROW(BatchedCgraMachine(k, 0, adapter), ConfigError);
}

TEST(Batch, BeamModelInterfaceIsUniform) {
  const CompiledKernel k = compile_kernel(
      "state float n = 0.0;\n"
      "n = n + 1.0;\n",
      grid_3x3(), "counter_kernel");
  NullSensorBus null_bus;
  BatchedCgraMachine single(k, null_bus);
  LaneFnBus bus0(0), bus1(1), bus2(2);
  PerLaneBusAdapter adapter({&bus0, &bus1, &bus2});
  BatchedCgraMachine batch(k, 3, adapter);

  // A loop written against BeamModel runs unchanged at any width.
  const auto drive = [](BeamModel& model) {
    const StateHandle n = model.state_handle("n");
    for (std::size_t lane = 0; lane < model.lanes(); ++lane) {
      model.set_state(n, static_cast<double>(lane), lane);
    }
    EXPECT_EQ(model.run_iteration_all_lanes(), model.kernel().schedule.length);
    for (std::size_t lane = 0; lane < model.lanes(); ++lane) {
      EXPECT_EQ(model.state(n, lane), static_cast<double>(lane) + 1.0);
    }
  };
  drive(single);
  drive(batch);
  EXPECT_EQ(single.lanes(), 1u);
  EXPECT_EQ(batch.lanes(), 3u);
  EXPECT_EQ(&single.kernel(), &k);
  EXPECT_EQ(&batch.kernel(), &k);
}

}  // namespace
}  // namespace citl::cgra

namespace citl::sweep {
namespace {

/// Compares two sweep results for byte-identity: rendered reports as string
/// equality, traces element-exact.
void expect_reports_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(metrics_csv(a), metrics_csv(b));
  EXPECT_EQ(metrics_json(a), metrics_json(b));
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].trace_time_s, b.scenarios[i].trace_time_s)
        << a.scenarios[i].name;
    EXPECT_EQ(a.scenarios[i].trace_phase_rad, b.scenarios[i].trace_phase_rad)
        << a.scenarios[i].name;
  }
}

TEST(BatchSweep, FrameworkReportsByteIdentical) {
  hil::FrameworkConfig base;
  base.kernel.pipelined = true;
  base.f_ref_hz = 800.0e3;

  SweepConfig config;
  config.threads = 2;
  config.scenarios =
      ScenarioGridBuilder::sample_accurate(base)
          .jump_amplitudes_deg({2, 4, 5, 6, 8, 9, 10, 12})
          .gains({-1, -3, -5, -7})
          .jump_timing(1.0, 0.05e-3)
          .duration_s(0.25e-3)
          .build();
  ASSERT_EQ(config.scenarios.size(), 32u);

  const SweepResult serial = run_sweep(config);
  EXPECT_EQ(serial.batch_chunks, 0u);

  config.batch_lanes = 5;  // uneven split: chunks of 5,5,...,2
  const SweepResult batched = run_sweep(config);
  EXPECT_EQ(batched.batch_chunks, 7u);
  expect_reports_identical(serial, batched);

  // Lane and thread counts are free parameters of the execution, never of
  // the result.
  config.batch_lanes = 32;
  config.threads = 1;
  const SweepResult one_chunk = run_sweep(config);
  EXPECT_EQ(one_chunk.batch_chunks, 1u);
  expect_reports_identical(serial, one_chunk);
}

TEST(BatchSweep, TurnLevelReportsByteIdentical) {
  hil::TurnLoopConfig base;
  base.kernel.pipelined = true;
  base.f_ref_hz = 800.0e3;
  base.phase_noise_rad = 0.5e-3;  // per-lane deterministic noise streams

  hil::TurnLoopConfig synth = base;
  synth.synthesize_waveform = true;

  SweepConfig config;
  config.threads = 2;
  // Two kernel groups (sampled + analytic) of six scenarios each: lockstep
  // chunks must never mix kernels.
  config.scenarios = ScenarioGridBuilder::turn_level(base)
                         .jump_amplitudes_deg({4, 8, 12})
                         .gains({-3, -5})
                         .jump_timing(1.0, 1.0e-3)
                         .duration_s(5.0e-3)
                         .build();
  auto synth_scenarios = ScenarioGridBuilder::turn_level(synth)
                             .jump_amplitudes_deg({4, 8, 12})
                             .gains({-3, -5})
                             .jump_timing(1.0, 1.0e-3)
                             .duration_s(5.0e-3)
                             .name_prefix("synth_")
                             .build();
  config.scenarios.insert(config.scenarios.end(), synth_scenarios.begin(),
                          synth_scenarios.end());
  ASSERT_EQ(config.scenarios.size(), 12u);

  const SweepResult serial = run_sweep(config);
  EXPECT_EQ(serial.distinct_kernels, 2u);

  config.batch_lanes = 4;
  const SweepResult batched = run_sweep(config);
  EXPECT_EQ(batched.batch_chunks, 4u);  // ceil(6/4) per kernel group
  expect_reports_identical(serial, batched);
}

TEST(BatchSweep, TurnLevelMatchesOwnedLoop) {
  // A turn-level scenario through the sweep engine equals a hand-driven
  // TurnLoop with the same seed, turn for turn.
  hil::TurnLoopConfig tc;
  tc.kernel.pipelined = true;
  tc.f_ref_hz = 800.0e3;
  tc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 1.0e-3);

  Scenario s;
  s.engine = ScenarioEngine::kTurnLevel;
  s.name = "single";
  s.turnloop = tc;
  s.duration_s = 4.0e-3;

  SweepConfig config;
  config.scenarios = {s};
  config.threads = 1;
  config.batch_lanes = 2;  // chunk of one lane: masked path, lane 0 only
  const SweepResult r = run_sweep(config);

  tc.noise_seed = scenario_seed(config.seed, 0);
  hil::TurnLoop loop(tc);
  const auto turns = static_cast<std::int64_t>(s.duration_s * tc.f_ref_hz);
  std::vector<double> ts, phases;
  loop.run(turns, [&](const hil::TurnRecord& rec) {
    ts.push_back(rec.time_s);
    phases.push_back(rec.phase_rad);
  });
  EXPECT_EQ(r.scenarios[0].trace_time_s, ts);
  EXPECT_EQ(r.scenarios[0].trace_phase_rad, phases);
  EXPECT_EQ(r.scenarios[0].metrics.cgra_runs, turns);
}

}  // namespace
}  // namespace citl::sweep
