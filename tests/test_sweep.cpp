// Scenario-sweep engine: deterministic replay, kernel-compilation sharing,
// metric extraction and report export.
//
// The headline guarantee under test: a sweep's output is bit-identical for
// ANY thread count or schedule, because every scenario derives its inputs
// from (sweep seed, scenario index) only and writes into its own slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"
#include "hil/framework.hpp"
#include "api/api.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/grid.hpp"
#include "sweep/kernel_cache.hpp"
#include "sweep/metrics.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace citl::sweep {
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

Scenario jump_scenario(double jump_deg, double gain, double noise_rms_v,
                       double duration_s) {
  Scenario s;
  s.name = "jump" + std::to_string(jump_deg) + "_gain" + std::to_string(gain);
  s.framework = paper_config();
  s.framework.adc_noise_rms_v = noise_rms_v;
  s.framework.controller.gain = gain;
  s.framework.jumps =
      ctrl::PhaseJumpProgramme(deg_to_rad(jump_deg), 1.0, 0.8e-3);
  s.duration_s = duration_s;
  return s;
}

TEST(SweepSeed, StableAndWellSpread) {
  // Frozen: recorded sweeps must stay replayable across versions.
  EXPECT_EQ(scenario_seed(2024, 0), 11487996472437173461ull);

  // Well-spread: no collisions over a large index range, and both master
  // seed and index matter.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    seeds.push_back(scenario_seed(2024, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(scenario_seed(2024, 7), scenario_seed(2025, 7));
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  // The ISSUE's acceptance test in miniature: the same 16-scenario sweep run
  // with 1, 2 and hardware_concurrency worker threads must produce
  // bit-identical metrics AND bit-identical traces. ADC noise is on, so this
  // also proves the per-scenario noise streams are schedule-independent.
  SweepConfig config;
  for (double jump_deg : {4.0, 6.0, 8.0, 10.0}) {
    for (double gain : {-2.0, -3.5, -5.0, -6.5}) {
      config.scenarios.push_back(
          jump_scenario(jump_deg, gain, 0.002, 3.0e-3));
    }
  }
  ASSERT_EQ(config.scenarios.size(), 16u);
  config.seed = 99;

  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  SweepResult reference;
  bool have_reference = false;
  for (unsigned threads : {1u, 2u, hw}) {
    config.threads = threads;
    SweepResult r = run_sweep(config);

    // Sixteen scenarios differing only in jump amplitude and controller gain
    // share one kernel: compiled exactly once per sweep.
    EXPECT_EQ(r.distinct_kernels, 1u);
    EXPECT_EQ(r.kernel_compilations, 1u);
    ASSERT_EQ(r.scenarios.size(), 16u);

    if (!have_reference) {
      reference = std::move(r);
      have_reference = true;
      continue;
    }
    // Metrics: string equality of the full deterministic report.
    EXPECT_EQ(metrics_csv(r), metrics_csv(reference))
        << "metrics differ at " << threads << " threads";
    EXPECT_EQ(metrics_json(r), metrics_json(reference));
    // Traces: exact floating-point equality, sample by sample.
    for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
      EXPECT_EQ(r.scenarios[i].seed, reference.scenarios[i].seed);
      EXPECT_TRUE(r.scenarios[i].trace_time_s ==
                  reference.scenarios[i].trace_time_s)
          << "time trace differs, scenario " << i;
      EXPECT_TRUE(r.scenarios[i].trace_phase_rad ==
                  reference.scenarios[i].trace_phase_rad)
          << "phase trace differs, scenario " << i;
      ASSERT_FALSE(r.scenarios[i].trace_phase_rad.empty());
    }
  }
}

TEST(Sweep, CompilesEachDistinctKernelOnce) {
  // Six scenarios, two distinct kernels (gap_voltage_v bakes into the
  // kernel's v_scale constant; controller gain does not).
  SweepConfig config;
  for (double gain : {-2.0, -5.0, -8.0}) {
    Scenario a = jump_scenario(8.0, gain, 0.0, 1.0e-3);
    config.scenarios.push_back(a);
    Scenario b = jump_scenario(8.0, gain, 0.0, 1.0e-3);
    b.framework.gap_voltage_v *= 0.5;
    config.scenarios.push_back(b);
  }
  config.threads = 2;
  config.collect_traces = false;

  KernelCache cache;
  config.cache = &cache;
  const SweepResult r = run_sweep(config);
  EXPECT_EQ(r.distinct_kernels, 2u);
  EXPECT_EQ(r.kernel_compilations, 2u);
  EXPECT_EQ(cache.compilations(), 2u);
  EXPECT_EQ(cache.lookups(), 6u);
  EXPECT_EQ(cache.size(), 2u);

  // Re-running against the same cache compiles nothing new.
  const SweepResult r2 = run_sweep(config);
  EXPECT_EQ(r2.kernel_compilations, 0u);
  EXPECT_EQ(cache.compilations(), 2u);
}

TEST(Sweep, UncompilableKernelThrowsConfigError) {
  // Two distinct kernels, one on an arch without a divider/rooter PE: the
  // beam kernel's sqrt cannot be placed, so the sweep throws the compiler's
  // ConfigError. The pool survives the failure and runs the next sweep.
  const hil::TurnLoopConfig base =
      api::to_turnloop_config(api::paper_operating_point());
  SweepConfig config;
  config.scenarios = ScenarioGridBuilder::turn_level(base)
                         .gains({-3.0, -5.0})
                         .jump_timing(1.0, 0.1e-3)
                         .duration_s(0.5e-3)
                         .build();
  Scenario no_sqrt = config.scenarios.front();
  no_sqrt.name = "no_sqrt";
  for (auto& pe : no_sqrt.turnloop.arch.pes) pe.divsqrt = false;
  config.scenarios.push_back(no_sqrt);
  config.collect_traces = false;

  ThreadPool pool(2);
  EXPECT_THROW(static_cast<void>(run_sweep(config, &pool)), ConfigError);

  config.scenarios.pop_back();
  const SweepResult r = run_sweep(config, &pool);
  EXPECT_EQ(r.distinct_kernels, 1u);
  EXPECT_EQ(r.kernel_compilations, 1u);
  ASSERT_EQ(r.scenarios.size(), 2u);
  for (const auto& s : r.scenarios) EXPECT_GT(s.metrics.cgra_runs, 0) << s.name;
}

TEST(KernelCache, ConcurrentLookupsCompileOnce) {
  const hil::FrameworkConfig fc = paper_config();
  const cgra::BeamKernelConfig kc = hil::effective_kernel_config(fc);

  KernelCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const cgra::CompiledKernel>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { got[static_cast<std::size_t>(i)] = cache.get(kc, fc.arch); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.compilations(), 1u);
  EXPECT_EQ(cache.lookups(), static_cast<std::size_t>(kThreads));
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].get(), got[0].get());
  }
  ASSERT_NE(got[0], nullptr);
  EXPECT_GT(got[0]->schedule.length, 0u);
}

TEST(KernelCache, KeySeparatesConfigsAndArchs) {
  const hil::FrameworkConfig fc = paper_config();
  const cgra::BeamKernelConfig kc = hil::effective_kernel_config(fc);

  cgra::BeamKernelConfig other = kc;
  other.v_scale *= 1.0 + 1e-15;  // one ulp-ish: must NOT share a kernel
  EXPECT_NE(kernel_cache_key(kc, fc.arch), kernel_cache_key(other, fc.arch));

  cgra::CgraArch arch2 = fc.arch;
  arch2.clock_hz *= 2.0;
  EXPECT_NE(kernel_cache_key(kc, fc.arch), kernel_cache_key(kc, arch2));

  EXPECT_EQ(kernel_cache_key(kc, fc.arch), kernel_cache_key(kc, fc.arch));
}

TEST(Sweep, SharedKernelHasNoMutableStateAliasing) {
  // Two frameworks over ONE CompiledKernel: runtime parameter changes on one
  // machine must not leak into the other, and behaviour must match a
  // framework that compiled its kernel privately.
  const hil::FrameworkConfig fc = paper_config();
  KernelCache cache;
  auto kernel = cache.get(hil::effective_kernel_config(fc), fc.arch);

  hil::Framework shared_a(fc, kernel);
  hil::Framework shared_b(fc, kernel);
  hil::Framework private_c(fc);  // own compilation
  EXPECT_EQ(&shared_a.kernel(), &shared_b.kernel());
  EXPECT_NE(&shared_a.kernel(), &private_c.kernel());

  const double v_scale = api::kernel_param(shared_b.machine(), "v_scale");
  api::set_kernel_param(shared_a.machine(), "v_scale", 0.0);
  EXPECT_DOUBLE_EQ(api::kernel_param(shared_b.machine(), "v_scale"), v_scale);
  EXPECT_DOUBLE_EQ(api::kernel_param(shared_a.machine(), "v_scale"), 0.0);

  shared_b.run_seconds(1.5e-3);
  private_c.run_seconds(1.5e-3);
  ASSERT_GT(shared_b.phase_trace().size(), 100u);
  EXPECT_TRUE(shared_b.phase_trace().values() ==
              private_c.phase_trace().values());
}

TEST(Sweep, NoiseSeedSelectsReproducibleStream) {
  // Same config + same noise_seed => identical run; different noise_seed =>
  // a different (but equally valid) noise realisation.
  hil::FrameworkConfig fc = paper_config();
  fc.adc_noise_rms_v = 0.003;

  auto run = [&](std::uint64_t seed) {
    hil::FrameworkConfig c = fc;
    c.noise_seed = seed;
    hil::Framework fw(c);
    fw.run_seconds(1.5e-3);
    return fw.phase_trace().values();
  };
  const std::vector<double> a1 = run(1);
  const std::vector<double> a2 = run(1);
  const std::vector<double> b = run(2);
  ASSERT_FALSE(a1.empty());
  EXPECT_TRUE(a1 == a2);
  EXPECT_FALSE(a1 == b);
}

TEST(SweepReport, CsvAndJsonStructure) {
  SweepConfig config;
  config.scenarios.push_back(jump_scenario(8.0, -5.0, 0.0, 1.5e-3));
  config.scenarios.push_back(jump_scenario(4.0, -2.0, 0.0, 1.5e-3));
  config.threads = 1;
  const SweepResult r = run_sweep(config);

  const std::string csv = metrics_csv(r);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "name,scenario,seed,f_sync_measured_hz,damping_tau_s,"
            "first_swing_rad,steady_rms_rad,settled_phase_rad,"
            "realtime_violations,cgra_runs,sim_time_s,schedule_cycles,"
            "deadline_headroom_min,deadline_headroom_p50,"
            "deadline_headroom_p99,worst_overrun_cycles,f_sync_reference_hz,"
            "faults_injected,faults_detected,faults_recovered,"
            "time_to_recovery_turns,finite_output_ratio,max_ulp_err,"
            "first_divergent_turn");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows

  // Timing columns stay out of the deterministic report but exist on demand.
  const std::string csv_t = metrics_csv(r, /*include_timing=*/true);
  EXPECT_NE(csv_t.find("wall_over_sim"), std::string::npos);
  EXPECT_EQ(csv.find("wall_over_sim"), std::string::npos);

  const std::string json = metrics_json(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"scenario_count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kernel_compilations\":1"), std::string::npos);
  EXPECT_NE(json.find("\"f_sync_measured_hz\":"), std::string::npos);
  EXPECT_NE(json.find(r.scenarios[0].name), std::string::npos);
  EXPECT_EQ(json.find("wall_time_s"), std::string::npos);
  EXPECT_NE(metrics_json(r, true).find("wall_time_s"), std::string::npos);
}

TEST(SweepMetrics, RecoversSyntheticDampedOscillation) {
  // Synthetic trace with known parameters: x(t) = offset for t < 0 is not
  // needed — jump at t = 0, damped cosine about a settled offset.
  constexpr double kF = 1280.0;
  constexpr double kTau = 2.0e-3;
  constexpr double kOffset = -0.14;
  constexpr double kAmp = 0.15;
  constexpr double kDt = 1.0 / 800.0e3;
  std::vector<double> t, x;
  for (int i = 0; i < 16000; ++i) {
    const double ti = static_cast<double>(i) * kDt;
    t.push_back(ti);
    x.push_back(kOffset +
                kAmp * std::exp(-ti / kTau) * std::cos(kTwoPi * kF * ti));
  }

  MetricWindows w;
  w.jump_s = 0.0;
  w.end_s = 16000.0 * kDt;
  w.f_sync_nominal_hz = kF;
  const ScenarioMetrics m = extract_phase_metrics(t, x, w);
  EXPECT_NEAR(m.f_sync_measured_hz, kF, 0.03 * kF);
  EXPECT_NEAR(m.damping_tau_s, kTau, 0.25 * kTau);
  EXPECT_NEAR(m.settled_phase_rad, kOffset, 1.0e-3);
  EXPECT_LT(m.steady_rms_rad, 5.0e-3);
  EXPECT_NEAR(m.first_swing_rad, 2.0 * kAmp, 0.25 * kAmp);
}

TEST(SweepMetrics, UndampedOscillationReportsInfiniteTau) {
  constexpr double kDt = 1.0 / 800.0e3;
  std::vector<double> t, x;
  for (int i = 0; i < 8000; ++i) {
    const double ti = static_cast<double>(i) * kDt;
    t.push_back(ti);
    x.push_back(0.1 * std::sin(kTwoPi * 1280.0 * ti));
  }
  const double tau = fit_damping_tau_s(t, x, 0.0, 8000.0 * kDt, 1280.0);
  // A constant envelope fits to slope ~0: +inf when the tiny peak-sampling
  // jitter lands positive, or a tau vastly beyond the 10 ms window when it
  // lands negative. Either way: "not damped on this record".
  EXPECT_TRUE(std::isinf(tau) || tau > 0.5) << "tau = " << tau;
}

// Suite name starts with "Oracle" so CI's --gtest_filter='Oracle*' runs the
// sweep integration together with the subsystem tests in test_oracle.cpp.
TEST(OracleSweep, AgreementFillsCleanColumnsAtAnyChunking) {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);

  oracle::OracleSpec spec;
  spec.enabled = true;
  spec.reference = oracle::Fidelity::kSerialF32;
  spec.candidate = oracle::Fidelity::kBatchedF32;
  spec.checkpoint_stride = 32;

  SweepConfig config;
  config.threads = 2;
  config.scenarios = ScenarioGridBuilder::turn_level(tl)
                         .jump_amplitudes_deg({4, 8})
                         .gains({-3, -5})
                         .jump_timing(1.0, 0.2e-3)
                         .duration_s(2.0e-3)
                         .oracle(spec)
                         .build();
  ASSERT_EQ(config.scenarios.size(), 4u);

  const SweepResult serial = run_sweep(config);
  ASSERT_EQ(serial.scenarios.size(), 4u);
  for (const auto& s : serial.scenarios) {
    // Serial and batched lanes at one precision are bit-identical, so the
    // oracle columns report perfect agreement.
    EXPECT_EQ(s.metrics.max_ulp_err, 0.0) << s.name;
    EXPECT_EQ(s.metrics.first_divergent_turn, -1) << s.name;
  }
  const std::string csv = metrics_csv(serial);
  EXPECT_NE(csv.find("max_ulp_err"), std::string::npos);
  EXPECT_NE(csv.find("first_divergent_turn"), std::string::npos);

  // Oracle metrics are part of the deterministic report: chunked execution
  // must reproduce them byte-for-byte.
  config.batch_lanes = 3;
  const SweepResult batched = run_sweep(config);
  EXPECT_GT(batched.batch_chunks, 0u);
  EXPECT_EQ(metrics_csv(serial), metrics_csv(batched));
  EXPECT_EQ(metrics_json(serial), metrics_json(batched));
}

TEST(OracleSweep, RejectsSampleAccurateEngine) {
  // All oracle fidelities are turn-granular; pairing one with the
  // sample-accurate engine is a configuration error, caught before any
  // scenario runs.
  Scenario s = jump_scenario(8.0, -5.0, 0.0, 1.0e-3);
  s.oracle.enabled = true;

  SweepConfig config;
  config.scenarios.push_back(s);
  config.threads = 1;
  EXPECT_THROW(run_sweep(config), ConfigError);
}

TEST(Sweep, EnsembleReferenceProducesGroundTruthMetrics) {
  // A scenario with the serial many-particle reference attached reports a
  // ground-truth synchrotron frequency near the analytic value.
  Scenario s = jump_scenario(8.0, -5.0, 0.0, 4.0e-3);
  s.framework.control_enabled = false;
  s.ensemble_reference = true;
  s.ensemble_particles = 500;

  SweepConfig config;
  config.scenarios.push_back(s);
  config.threads = 1;
  const SweepResult r = run_sweep(config);
  ASSERT_EQ(r.scenarios.size(), 1u);
  EXPECT_NEAR(r.scenarios[0].f_sync_reference_hz, 1280.0, 0.10 * 1280.0);
  EXPECT_GT(r.scenarios[0].reference_first_swing_rad, 0.0);
}

TEST(Sweep, EnsembleReferenceIsEngineIndependent) {
  // The ground truth is driven by the loop both engines share (operating
  // point, jump programme, controller), so one SessionConfig expanded for
  // either engine must give bit-identical reference columns, on the
  // per-scenario and on the batched path.
  api::SessionConfig sc = api::paper_operating_point();
  sc.jump_start_s = 0.2e-3;
  for (const std::size_t lanes : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("batch_lanes " + std::to_string(lanes));
    ScenarioResult by_engine[2];
    for (const ScenarioEngine engine :
         {ScenarioEngine::kTurnLevel, ScenarioEngine::kSampleAccurate}) {
      Scenario s;
      s.name = "ensemble";
      s.engine = engine;
      if (engine == ScenarioEngine::kTurnLevel) {
        s.turnloop = api::to_turnloop_config(sc);
      } else {
        s.framework = api::to_framework_config(sc);
      }
      s.duration_s = 2.0e-3;
      s.ensemble_reference = true;
      s.ensemble_particles = 200;

      SweepConfig config;
      config.scenarios.push_back(s);
      config.threads = 1;
      config.collect_traces = false;
      config.batch_lanes = lanes;
      by_engine[engine == ScenarioEngine::kTurnLevel ? 0 : 1] =
          run_sweep(config).scenarios.at(0);
    }
    EXPECT_GT(by_engine[0].f_sync_reference_hz, 0.0);
    EXPECT_GT(by_engine[0].reference_first_swing_rad, 0.0);
    EXPECT_EQ(by_engine[0].f_sync_reference_hz,
              by_engine[1].f_sync_reference_hz);
    EXPECT_EQ(by_engine[0].reference_first_swing_rad,
              by_engine[1].reference_first_swing_rad);
  }
}

}  // namespace
}  // namespace citl::sweep
