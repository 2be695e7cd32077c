#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <span>

#include "cgra/batch.hpp"
#include "core/error.hpp"
#include "core/simtime.hpp"
#include "hil/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace citl::sweep {

namespace {

// --- kernel selection per scenario ----------------------------------------

KernelKind scenario_kernel_kind(const Scenario& s) {
  const bool analytic = s.engine == ScenarioEngine::kTurnLevel &&
                        s.turnloop.synthesize_waveform;
  return analytic ? KernelKind::kAnalytic : KernelKind::kSampled;
}

std::string scenario_kernel_key(const Scenario& s) {
  return kernel_cache_key(hil::effective_kernel_config(s.loop()), s.loop().arch,
                          scenario_kernel_kind(s));
}

std::shared_ptr<const cgra::CompiledKernel> scenario_kernel(
    KernelCache& cache, const Scenario& s) {
  return cache.get(hil::effective_kernel_config(s.loop()), s.loop().arch,
                   scenario_kernel_kind(s));
}

/// Lockstep-group key: scenarios may share a lane batch only when they run
/// the same compiled kernel through the same engine and execution tier
/// (lanes of one BatchedCgraMachine all run one tier).
std::string scenario_group_key(const Scenario& s) {
  std::string key =
      s.engine == ScenarioEngine::kTurnLevel ? "turn|" : "tick|";
  key += scenario_kernel_key(s);
  key += '|';
  key += cgra::exec_tier_name(s.loop().exec_tier);
  return key;
}

[[nodiscard]] std::int64_t turn_count(const Scenario& scenario) {
  return static_cast<std::int64_t>(scenario.duration_s *
                                   scenario.loop().f_ref_hz);
}

[[nodiscard]] double jump_start_s(const Scenario& scenario) {
  const auto& jumps = scenario.loop().jumps;
  return jumps ? jumps->start_s() : 0.0;
}

/// Ground-truth columns: the scenario's loop closed around a serial
/// many-particle ensemble (hil::run_ensemble_reference) seeded with the
/// scenario seed, measured in the same windows as the HIL metrics.
void fill_ensemble_reference(const Scenario& scenario, std::uint64_t seed,
                             ScenarioResult& out) {
  constexpr std::int64_t kRecordEvery = 8;
  const hil::EnsembleSeries ref = hil::run_ensemble_reference(
      scenario.loop(), scenario.ensemble_particles,
      scenario.ensemble_sigma_dt_s, seed, turn_count(scenario), kRecordEvery);
  const double jump_s = jump_start_s(scenario);
  const double t_sync = 1.0 / scenario.f_sync_nominal_hz;
  out.f_sync_reference_hz = hil::estimate_oscillation_frequency_hz(
      ref.time_s, ref.phase_rad, jump_s + 0.2e-3,
      std::min(scenario.duration_s, jump_s + 6.0 * t_sync));
  out.reference_first_swing_rad = hil::peak_to_peak(
      ref.time_s, ref.phase_rad, jump_s, jump_s + 1.2 * t_sync);
}

// --- shared metric extraction ----------------------------------------------

[[nodiscard]] double finite_fraction(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  std::size_t n = 0;
  for (const double v : xs) {
    if (std::isfinite(v)) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

/// Fault-campaign columns: injector counters plus supervisor episode stats.
/// Without a supervisor the finite-output ratio falls back to the fraction
/// of finite phase samples — exactly 1.0 on a healthy run either way, so the
/// healthy-path byte-identity regression holds.
void fill_fault_metrics(const fault::FaultInjector* injector,
                        const hil::Supervisor* supervisor,
                        std::span<const double> phases, ScenarioMetrics& m) {
  if (injector != nullptr) m.faults_injected = injector->windows_entered();
  if (supervisor != nullptr) {
    const hil::SupervisorStats& s = supervisor->stats();
    m.faults_detected = s.faults_detected;
    m.faults_recovered = s.recoveries;
    m.time_to_recovery_turns = s.mean_time_to_recovery_turns();
    m.finite_output_ratio = s.finite_output_ratio();
  } else {
    m.finite_output_ratio = finite_fraction(phases);
  }
}

/// Fills the metric, deadline and fault columns of a finished scenario from
/// either engine (hil::Framework or hil::TurnLoop) and its recorded phase
/// series. The trace hand-off stays with the caller, which knows whether it
/// may move the series.
template <class Loop>
void finalize_result(const Scenario& scenario, const Loop& loop,
                     std::int64_t cgra_runs, std::span<const double> ts,
                     std::span<const double> phases, double wall_s,
                     ScenarioMetrics& m) {
  MetricWindows windows;
  windows.jump_s = jump_start_s(scenario);
  windows.end_s = scenario.duration_s;
  windows.f_sync_nominal_hz = scenario.f_sync_nominal_hz;
  m = extract_phase_metrics(ts, phases, windows);
  m.realtime_violations = loop.realtime_violations();
  m.cgra_runs = cgra_runs;
  m.sim_time_s = scenario.duration_s;
  m.schedule_cycles = static_cast<std::int64_t>(loop.kernel().schedule.length);
  const obs::DeadlineStats deadline = loop.deadline().stats();
  m.deadline_headroom_min = deadline.headroom_min;
  m.deadline_headroom_p50 = deadline.headroom_p50;
  m.deadline_headroom_p99 = deadline.headroom_p99;
  m.worst_overrun_cycles = deadline.worst_overrun_cycles;
  fill_fault_metrics(loop.injector(), loop.supervisor(), phases, m);
  m.wall_time_s = wall_s;
  m.wall_over_sim =
      scenario.duration_s > 0.0 ? wall_s / scenario.duration_s : 0.0;
}

/// Opt-in oracle axis: re-runs the (turn-level) scenario through the spec's
/// fidelity pair and fills the two oracle metric columns. Runs identically
/// from the serial and the chunked path — the oracle constructs its own
/// loops from (scenario config, derived seed) alone, so the sweep's
/// byte-identity guarantee extends to these columns.
void run_scenario_oracle(const Scenario& scenario, std::uint64_t seed,
                         ScenarioMetrics& metrics) {
  if (!scenario.oracle.enabled) return;
  hil::TurnLoopConfig tc = scenario.turnloop;
  tc.noise_seed = seed;
  oracle::OracleConfig oc;
  oc.reference = scenario.oracle.reference;
  oc.candidate = scenario.oracle.candidate;
  oc.budget = scenario.oracle.budget;
  oc.checkpoint_stride = scenario.oracle.checkpoint_stride;
  oc.turns = std::max<std::int64_t>(1, turn_count(scenario));
  // Sweeps only report the columns; minimising and archiving a divergence is
  // the oracle_hunt driver's job.
  oc.shrink = false;
  const oracle::OracleReport rep = oracle::run_oracle(tc, oc);
  metrics.max_ulp_err = rep.max_ulp_err;
  metrics.first_divergent_turn = rep.first_divergent_turn;
}

// --- per-scenario (serial) runners ------------------------------------------

ScenarioResult run_framework_scenario(const Scenario& scenario,
                                      std::size_t index, std::uint64_t seed,
                                      KernelCache& cache,
                                      bool collect_traces) {
  ScenarioResult out;
  out.name = scenario.name;
  out.index = index;
  out.seed = seed;

  hil::FrameworkConfig fc = scenario.framework;
  fc.noise_seed = seed;
  auto kernel = scenario_kernel(cache, scenario);

  const auto wall_begin = std::chrono::steady_clock::now();
  hil::Framework fw(fc, std::move(kernel));
  {
    // One span per scenario task: the trace shows which worker ran which
    // scenario and for how long. scenario.name outlives the span.
    obs::ScopedSpan span(scenario.name);
    fw.run_seconds(scenario.duration_s);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  finalize_result(scenario, fw, fw.cgra_runs(), fw.phase_trace().times(),
                  fw.phase_trace().values(),
                  std::chrono::duration<double>(wall_end - wall_begin).count(),
                  out.metrics);
  if (collect_traces) {
    out.trace_time_s = fw.phase_trace().times();
    out.trace_phase_rad = fw.phase_trace().values();
  }
  if (scenario.ensemble_reference) {
    fill_ensemble_reference(scenario, seed, out);
  }
  return out;
}

ScenarioResult run_turn_scenario(const Scenario& scenario, std::size_t index,
                                 std::uint64_t seed, KernelCache& cache,
                                 bool collect_traces) {
  ScenarioResult out;
  out.name = scenario.name;
  out.index = index;
  out.seed = seed;

  hil::TurnLoopConfig tc = scenario.turnloop;
  tc.noise_seed = seed;
  auto kernel = scenario_kernel(cache, scenario);

  const auto turns = turn_count(scenario);
  std::vector<double> ts, phases;
  ts.reserve(static_cast<std::size_t>(turns));
  phases.reserve(static_cast<std::size_t>(turns));

  const auto wall_begin = std::chrono::steady_clock::now();
  hil::TurnLoop loop(tc, std::move(kernel));
  {
    obs::ScopedSpan span(scenario.name);
    loop.run(turns, [&](const hil::TurnRecord& r) {
      ts.push_back(r.time_s);
      phases.push_back(r.phase_rad);
    });
  }
  const auto wall_end = std::chrono::steady_clock::now();

  finalize_result(scenario, loop, loop.turn(), ts, phases,
                  std::chrono::duration<double>(wall_end - wall_begin).count(),
                  out.metrics);
  if (collect_traces) {
    out.trace_time_s = std::move(ts);
    out.trace_phase_rad = std::move(phases);
  }
  run_scenario_oracle(scenario, seed, out.metrics);
  if (scenario.ensemble_reference) {
    fill_ensemble_reference(scenario, seed, out);
  }
  return out;
}

ScenarioResult run_scenario(const Scenario& scenario, std::size_t index,
                            std::uint64_t seed, KernelCache& cache,
                            bool collect_traces) {
  return scenario.engine == ScenarioEngine::kTurnLevel
             ? run_turn_scenario(scenario, index, seed, cache, collect_traces)
             : run_framework_scenario(scenario, index, seed, cache,
                                      collect_traces);
}

// --- lockstep chunk drivers -------------------------------------------------

/// Runs one chunk of sample-accurate scenarios as lanes of a batched
/// machine: every framework runs in deferred-CGRA mode, parking at its
/// reference crossing; each round executes one batched kernel iteration
/// across all parked lanes and acknowledges them. Lanes that exhausted their
/// tick budget drop out of the active set (lane-masked execution keeps the
/// others bit-identical to the serial path).
void run_framework_chunk(const SweepConfig& config,
                         const std::vector<std::size_t>& members,
                         KernelCache& cache,
                         std::vector<ScenarioResult>& results) {
  const std::size_t n = members.size();
  const auto wall_begin = std::chrono::steady_clock::now();
  auto kernel = scenario_kernel(cache, config.scenarios[members[0]]);

  std::vector<std::unique_ptr<hil::Framework>> fws(n);
  std::vector<cgra::SensorBus*> buses(n);
  std::vector<Tick> end_tick(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Scenario& scenario = config.scenarios[members[k]];
    hil::FrameworkConfig fc = scenario.framework;
    fc.noise_seed = scenario_seed(config.seed, members[k]);
    fws[k] = std::make_unique<hil::Framework>(fc, kernel);
    fws[k]->set_cgra_deferred(true);
    buses[k] = &fws[k]->cgra_bus();
    end_tick[k] = kSampleClock.to_ticks(scenario.duration_s);
  }
  cgra::PerLaneBusAdapter adapter(std::move(buses));
  cgra::BatchedCgraMachine machine(
      *kernel, n, adapter, cgra::Precision::kFloat32,
      config.scenarios[members[0]].loop().exec_tier);
  for (std::size_t k = 0; k < n; ++k) {
    // Injected state faults and the supervisor's state guard act on this
    // framework's lane of the shared machine, not the idle owned one.
    fws[k]->attach_cgra_model(machine, k);
  }

  {
    obs::ScopedSpan span("sweep.batch_chunk");
    std::vector<std::uint32_t> active;
    active.reserve(n);
    std::vector<char> done(n, 0);
    for (;;) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (done[k]) continue;
        const Tick remaining = end_tick[k] - fws[k]->now();
        if (remaining > 0 && fws[k]->run_until_cgra_request(remaining)) {
          active.push_back(static_cast<std::uint32_t>(k));
        } else {
          done[k] = 1;
        }
      }
      if (active.empty()) break;
      const unsigned exec =
          machine.run_iteration_lanes(active.data(), active.size());
      for (const std::uint32_t id : active) {
        fws[id]->complete_cgra_run(exec);
      }
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count() /
      static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = members[k];
    const Scenario& scenario = config.scenarios[i];
    ScenarioResult& out = results[i];
    out.name = scenario.name;
    out.index = i;
    out.seed = scenario_seed(config.seed, i);
    const hil::Framework& fw = *fws[k];
    finalize_result(scenario, fw, fw.cgra_runs(), fw.phase_trace().times(),
                    fw.phase_trace().values(), wall_s, out.metrics);
    if (config.collect_traces) {
      out.trace_time_s = fw.phase_trace().times();
      out.trace_phase_rad = fw.phase_trace().values();
    }
    if (scenario.ensemble_reference) {
      fill_ensemble_reference(scenario, out.seed, out);
    }
  }
}

/// Runs one chunk of turn-level scenarios in lockstep: each revolution,
/// every active loop presents its inputs (begin_turn), one batched kernel
/// iteration executes all active lanes, and every loop completes its
/// revolution (finish_turn).
void run_turn_chunk(const SweepConfig& config,
                    const std::vector<std::size_t>& members,
                    KernelCache& cache, std::vector<ScenarioResult>& results) {
  const std::size_t n = members.size();
  const auto wall_begin = std::chrono::steady_clock::now();
  auto kernel = scenario_kernel(cache, config.scenarios[members[0]]);

  std::vector<std::unique_ptr<hil::TurnLoop>> loops(n);
  std::vector<cgra::SensorBus*> buses(n);
  std::vector<std::int64_t> turns(n);
  std::vector<std::vector<double>> ts(n), phases(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Scenario& scenario = config.scenarios[members[k]];
    hil::TurnLoopConfig tc = scenario.turnloop;
    tc.noise_seed = scenario_seed(config.seed, members[k]);
    loops[k] = std::make_unique<hil::TurnLoop>(tc, kernel,
                                               hil::TurnLoop::ExternalModel{});
    buses[k] = &loops[k]->cgra_bus();
    turns[k] = turn_count(scenario);
    ts[k].reserve(static_cast<std::size_t>(turns[k]));
    phases[k].reserve(static_cast<std::size_t>(turns[k]));
  }
  cgra::PerLaneBusAdapter adapter(std::move(buses));
  cgra::BatchedCgraMachine machine(
      *kernel, n, adapter, cgra::Precision::kFloat32,
      config.scenarios[members[0]].loop().exec_tier);
  for (std::size_t k = 0; k < n; ++k) {
    loops[k]->attach_model(machine, k);
  }

  {
    obs::ScopedSpan span("sweep.batch_chunk");
    std::vector<std::uint32_t> active;
    active.reserve(n);
    for (;;) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (loops[k]->turn() < turns[k] && !loops[k]->aborted()) {
          loops[k]->begin_turn();
          active.push_back(static_cast<std::uint32_t>(k));
        }
      }
      if (active.empty()) break;
      const unsigned exec =
          machine.run_iteration_lanes(active.data(), active.size());
      for (const std::uint32_t id : active) {
        const hil::TurnRecord r = loops[id]->finish_turn(exec);
        ts[id].push_back(r.time_s);
        phases[id].push_back(r.phase_rad);
      }
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count() /
      static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = members[k];
    const Scenario& scenario = config.scenarios[i];
    ScenarioResult& out = results[i];
    out.name = scenario.name;
    out.index = i;
    out.seed = scenario_seed(config.seed, i);
    finalize_result(scenario, *loops[k], loops[k]->turn(), ts[k], phases[k],
                    wall_s, out.metrics);
    if (config.collect_traces) {
      out.trace_time_s = std::move(ts[k]);
      out.trace_phase_rad = std::move(phases[k]);
    }
    run_scenario_oracle(scenario, out.seed, out.metrics);
    if (scenario.ensemble_reference) {
      fill_ensemble_reference(scenario, out.seed, out);
    }
  }
}

/// Partitions scenario indices into lockstep chunks: scenarios group by
/// (engine, kernel-cache key) in index order, each group splitting into runs
/// of at most `lanes`. The grouping is deterministic (ordered map, ascending
/// indices), so chunk composition never depends on thread scheduling.
std::vector<std::vector<std::size_t>> plan_chunks(
    const std::vector<Scenario>& scenarios, std::size_t lanes) {
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    groups[scenario_group_key(scenarios[i])].push_back(i);
  }
  std::vector<std::vector<std::size_t>> chunks;
  for (const auto& [key, members] : groups) {
    for (std::size_t p = 0; p < members.size(); p += lanes) {
      const std::size_t e = std::min(members.size(), p + lanes);
      chunks.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(p),
                          members.begin() + static_cast<std::ptrdiff_t>(e));
    }
  }
  return chunks;
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t master, std::size_t index) noexcept {
  // splitmix64 over (master, index): well-spread, stable, order-free.
  std::uint64_t z = master +
                    0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SweepResult run_sweep(const SweepConfig& config, ThreadPool* pool) {
  const auto wall_begin = std::chrono::steady_clock::now();

  KernelCache local_cache;
  KernelCache& cache = config.cache != nullptr ? *config.cache : local_cache;
  const std::size_t compilations_before = cache.compilations();

  for (const auto& scenario : config.scenarios) {
    if (scenario.oracle.enabled &&
        scenario.engine != ScenarioEngine::kTurnLevel) {
      throw ConfigError("sweep: scenario '" + scenario.name +
                        "' enables the differential oracle on a "
                        "sample-accurate engine; the oracle's fidelities are "
                        "all turn-granular", ErrorCode::kUnsupported);
    }
  }

  SweepResult result;
  result.scenarios.resize(config.scenarios.size());

  // Distinct-kernel accounting doubles as the attribution grouping: members
  // of one cache key share one compiled schedule, so one profile.
  std::map<std::string, std::vector<std::size_t>> distinct;
  for (std::size_t i = 0; i < config.scenarios.size(); ++i) {
    distinct[scenario_kernel_key(config.scenarios[i])].push_back(i);
  }
  result.distinct_kernels = distinct.size();

  ThreadPool local_pool(pool != nullptr ? 1 : config.threads);
  ThreadPool& runner = pool != nullptr ? *pool : local_pool;
  result.threads_used = runner.size();

  // Observability: completed-scenario counter, pending-queue gauge and a
  // Perfetto counter track. None of it reaches the deterministic results.
  obs::Counter& completed =
      obs::Registry::global().counter("sweep.scenarios_completed");
  obs::Gauge& pending_gauge =
      obs::Registry::global().gauge("sweep.scenarios_pending");
  pending_gauge.set(static_cast<double>(config.scenarios.size()));
  std::atomic<std::size_t> pending{config.scenarios.size()};
  const auto account_done = [&](std::size_t count) {
    completed.add(count);
    const auto left = static_cast<double>(
        pending.fetch_sub(count, std::memory_order_relaxed) - count);
    pending_gauge.set(left);
    obs::Tracer::global().counter("sweep.scenarios_pending", left);
  };

  if (config.batch_lanes > 1) {
    // Batched path: chunks of kernel-sharing scenarios are the unit of work.
    const auto chunks = plan_chunks(config.scenarios, config.batch_lanes);
    result.batch_chunks = chunks.size();
    obs::Registry::global().counter("sweep.batch.chunks").add(chunks.size());
    runner.parallel_for(0, chunks.size(), [&](std::size_t c) {
      const auto& members = chunks[c];
      if (config.scenarios[members[0]].engine == ScenarioEngine::kTurnLevel) {
        run_turn_chunk(config, members, cache, result.scenarios);
      } else {
        run_framework_chunk(config, members, cache, result.scenarios);
      }
      account_done(members.size());
    });
  } else {
    // One scenario per index; slot `i` is written only by the task running
    // scenario i, and every input of that task is derived from (config, i) —
    // this is what makes the sweep schedule-independent.
    runner.parallel_for(0, config.scenarios.size(), [&](std::size_t i) {
      result.scenarios[i] =
          run_scenario(config.scenarios[i], i, scenario_seed(config.seed, i),
                       cache, config.collect_traces);
      account_done(1);
    });
  }

  // Per-kernel cycle attribution: static schedule profile × the summed
  // cgra_runs of the member scenarios. Ordered by cache key (the std::map),
  // so the report section is deterministic at any thread/lane count.
  for (const auto& [key, members] : distinct) {
    KernelAttribution ka;
    // peek(): the scenarios already resolved every key, and the attribution
    // pass must not inflate the cache's lookup/hit statistics.
    auto kernel = cache.peek(key);
    if (kernel == nullptr) {
      kernel = scenario_kernel(cache, config.scenarios[members[0]]);
    }
    ka.profile = cgra::kernel_cycle_profile(*kernel);
    for (const std::size_t idx : members) {
      ka.iterations +=
          static_cast<std::uint64_t>(result.scenarios[idx].metrics.cgra_runs);
    }
    ka.scenario_indices = members;
    result.attribution.push_back(std::move(ka));
  }

  result.kernel_compilations = cache.compilations() - compilations_before;
  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  return result;
}

}  // namespace citl::sweep
