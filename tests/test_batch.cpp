// Lane-parallel CGRA execution: bit-identity of every lane to one-lane
// references (values, states and pipeline registers against the
// cycle-accurate walk, bus write order against the one-lane interpreter; per
// kernel, per precision), lane masking, an engine reset and restored
// mid-run against a fresh one, the handle-based model API, unified error
// reporting, and byte-identity of batched sweep reports.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
  std::string source;
  CompiledKernel kernel;
};

KernelCase make_case(std::string label, std::string source, std::string name) {
  CompiledKernel kernel = compile_kernel(source, grid_5x5(), std::move(name));
  return {std::move(label), std::move(source), std::move(kernel)};
}

std::vector<KernelCase> kernel_cases() {
  BeamKernelConfig kc;  // defaults: 14N7+, SIS18, gamma0 = 1.2
  std::vector<KernelCase> cases;

  BeamKernelConfig pipelined = kc;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  cases.push_back(make_case("sampled_pipelined", beam_kernel_source(pipelined),
                            "beam_sampled"));

  BeamKernelConfig flat = kc;
  flat.interpolate = false;
  cases.push_back(
      make_case("sampled_flat", beam_kernel_source(flat), "beam_sampled"));
  cases.push_back(make_case("analytic", analytic_beam_kernel_source(kc),
                            "beam_analytic"));
  cases.push_back(
      make_case("ramp", ramp_beam_kernel_source(kc), "beam_ramp"));
  cases.push_back(
      make_case("demo", demo_oscillator_source(), "demo_oscillator"));
  return cases;
}

// Every lane against its own one-lane references (engine_check.hpp): node
// values, states and pipeline registers against the cycle-accurate walk,
// the bus write log against the interpreter; full-width and masked steps.
TEST(Batch, LockstepMatchesSerialEveryKernelFloat32) {
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(c.kernel, c.source, 5,
                                                ExecTier::kInterpreter,
                                                Precision::kFloat32, 40);
  }
}

TEST(Batch, LockstepMatchesSerialEveryKernelFloat64) {
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(c.kernel, c.source, 5,
                                                ExecTier::kInterpreter,
                                                Precision::kFloat64, 40);
  }
}

TEST(Batch, LockstepMatchesCycleAccurateSingleLane) {
  // The functional/cycle-accurate equivalence holds at every width,
  // including the one-lane engine every closed loop owns.
  for (const auto& c : kernel_cases()) {
    SCOPED_TRACE(c.label);
    test_support::check_engine_against_one_lane(c.kernel, c.source, 1,
                                                ExecTier::kInterpreter,
                                                Precision::kFloat32, 40);
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

/// Iteration `i` of a mixed schedule: full width, then two masked subsets
/// (a one-lane engine always runs full width).
void run_mixed_iteration(BatchedCgraMachine& m, int i) {
  static constexpr std::uint32_t kOuter[] = {0, 2};
  static constexpr std::uint32_t kMiddle[] = {1};
  if (m.lanes() < 3 || i % 3 == 0) {
    m.run_iteration_all_lanes();
  } else if (i % 3 == 1) {
    m.run_iteration_lanes(kOuter, 2);
  } else {
    m.run_iteration_lanes(kMiddle, 1);
  }
}

std::vector<std::uint64_t> engine_bits(const BatchedCgraMachine& m) {
  const Dfg& g = m.kernel().dfg;
  std::vector<std::uint64_t> out;
  std::vector<double> states(g.states().size());
  std::vector<double> regs(m.pipe_reg_count());
  for (std::size_t lane = 0; lane < m.lanes(); ++lane) {
    m.snapshot_states(lane, states.data());
    m.snapshot_pipe_regs(lane, regs.data());
    for (double v : states) out.push_back(std::bit_cast<std::uint64_t>(v));
    for (double v : regs) out.push_back(std::bit_cast<std::uint64_t>(v));
    for (std::size_t i = 0; i < g.size(); ++i) {
      out.push_back(std::bit_cast<std::uint64_t>(
          m.value(static_cast<NodeId>(i), lane)));
    }
  }
  return out;
}

// reset() re-assigns the state and param banks; an engine that ran, was
// reset and had one lane restored from a snapshot must run on exactly as a
// fresh engine given the same restore and the same inputs.
TEST(Batch, PlanSurvivesResetAndRestore) {
  for (const auto& c : kernel_cases()) {
    for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(c.label + (p == Precision::kFloat32 ? " f32 " : " f64 ") +
                     std::to_string(lanes) + " lane(s)");
        const std::size_t restored = lanes - 1;
        std::vector<std::unique_ptr<LaneFnBus>> used_buses, fresh_buses;
        std::vector<SensorBus*> used_ptrs, fresh_ptrs;
        for (std::size_t l = 0; l < lanes; ++l) {
          used_buses.push_back(std::make_unique<LaneFnBus>(l));
          fresh_buses.push_back(std::make_unique<LaneFnBus>(l));
          used_ptrs.push_back(used_buses.back().get());
          fresh_ptrs.push_back(fresh_buses.back().get());
        }
        PerLaneBusAdapter used_adapter(used_ptrs), fresh_adapter(fresh_ptrs);
        BatchedCgraMachine used(c.kernel, lanes, used_adapter, p);
        for (std::size_t l = 0; l < lanes; ++l) {
          test_support::perturb_lane(used, l, l);
        }
        std::vector<double> states(c.kernel.dfg.states().size());
        std::vector<double> regs(used.pipe_reg_count());
        for (int i = 0; i < 17; ++i) {
          run_mixed_iteration(used, i);
          if (i == 11) {
            used.snapshot_states(restored, states.data());
            used.snapshot_pipe_regs(restored, regs.data());
          }
        }

        used.reset();
        BatchedCgraMachine fresh(c.kernel, lanes, fresh_adapter, p);
        for (BatchedCgraMachine* m : {&used, &fresh}) {
          // New params on every lane after the reset: the passes below must
          // read the banks reset() just filled.
          for (std::size_t l = 0; l < lanes; ++l) {
            test_support::perturb_lane(*m, l, l + 5);
          }
          m->restore_states(restored, states.data());
          m->restore_pipe_regs(restored, regs.data());
        }
        for (auto& b : used_buses) b->log.clear();
        for (int i = 0; i < 23; ++i) {
          run_mixed_iteration(used, i);
          run_mixed_iteration(fresh, i);
        }
        EXPECT_TRUE(engine_bits(used) == engine_bits(fresh));
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(used_buses[l]->log, fresh_buses[l]->log) << "lane " << l;
        }
        EXPECT_EQ(used.lane_iterations(), fresh.lane_iterations());
      }
    }
  }
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
  EXPECT_EQ(serial.batch_chunks, 32u);  // one one-lane chunk per scenario

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

TEST(BatchSweep, FrameworkMatchesOwnedLoop) {
  // A sample-accurate scenario through the sweep engine equals a hand-driven
  // Framework on its own one-lane engine with the same seed, sample for
  // sample: the sweep's chunk loop is held to an independent one.
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  fc.adc_noise_rms_v = 2.0e-3;  // the derived seed selects the noise
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.05e-3);

  Scenario s;
  s.engine = ScenarioEngine::kSampleAccurate;
  s.name = "single";
  s.framework = fc;
  s.duration_s = 0.25e-3;

  SweepConfig config;
  config.scenarios = {s};
  config.threads = 1;
  const SweepResult r = run_sweep(config);

  fc.noise_seed = scenario_seed(config.seed, 0);
  hil::Framework fw(fc);
  fw.run_seconds(s.duration_s);
  ASSERT_FALSE(fw.phase_trace().values().empty());
  EXPECT_EQ(r.scenarios[0].trace_time_s, fw.phase_trace().times());
  EXPECT_EQ(r.scenarios[0].trace_phase_rad, fw.phase_trace().values());
  EXPECT_EQ(r.scenarios[0].metrics.cgra_runs, fw.cgra_runs());
  EXPECT_GT(fw.cgra_runs(), 0);
}

}  // namespace
}  // namespace citl::sweep
