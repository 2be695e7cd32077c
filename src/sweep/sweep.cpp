#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

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

/// Lockstep-group key: scenarios may share a lane batch only when they run
/// the same compiled kernel (`kernel_key`, the scenario's
/// scenario_kernel_key) through the same engine and execution tier (lanes
/// of one BatchedCgraMachine all run one tier).
std::string scenario_group_key(const Scenario& s, std::string_view kernel_key) {
  std::string key =
      s.engine == ScenarioEngine::kTurnLevel ? "turn|" : "tick|";
  key += kernel_key;
  key += '|';
  key += cgra::exec_tier_name(s.loop().exec_tier);
  return key;
}

[[nodiscard]] std::int64_t turn_count(const Scenario& scenario) {
  return static_cast<std::int64_t>(scenario.duration_s *
                                   scenario.loop().f_ref_hz);
}

/// `config` with the scenario's derived seed for its noise streams.
template <class Config>
Config seeded(Config config, std::uint64_t seed) {
  config.noise_seed = seed;
  return config;
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
/// fidelity pair and fills the two oracle metric columns. The oracle
/// constructs its own loops from (scenario config, derived seed) alone, so
/// the sweep's byte-identity guarantee extends to these columns.
void run_scenario_oracle(const Scenario& scenario, std::uint64_t seed,
                         ScenarioMetrics& metrics) {
  if (!scenario.oracle.enabled) return;
  oracle::OracleConfig oc;
  oc.reference = scenario.oracle.reference;
  oc.candidate = scenario.oracle.candidate;
  oc.budget = scenario.oracle.budget;
  oc.checkpoint_stride = scenario.oracle.checkpoint_stride;
  oc.turns = std::max<std::int64_t>(1, turn_count(scenario));
  // Sweeps only report the columns; minimising and archiving a divergence is
  // the oracle_hunt driver's job.
  oc.shrink = false;
  const oracle::OracleReport rep =
      oracle::run_oracle(seeded(scenario.turnloop, seed), oc);
  metrics.max_ulp_err = rep.max_ulp_err;
  metrics.first_divergent_turn = rep.first_divergent_turn;
}

// --- lockstep chunks -------------------------------------------------------
// A lane is one scenario's loop, built on the chunk's machine. The engines
// differ only in how a lane reaches its next kernel iteration (begin) and
// how it completes one (finish).

/// A turn-level scenario: begin_turn() presents the revolution's inputs,
/// finish_turn() completes it, and the lane records the phase series.
struct TurnLane {
  static constexpr bool kRevolutionSpan = false;

  TurnLane(const Scenario& scenario, std::uint64_t seed,
           std::shared_ptr<const cgra::CompiledKernel> kernel)
      : loop(std::make_unique<hil::TurnLoop>(seeded(scenario.turnloop, seed),
                                             std::move(kernel),
                                             hil::TurnLoop::ExternalModel{})),
        turns(turn_count(scenario)) {
    ts.reserve(static_cast<std::size_t>(turns));
    phases.reserve(static_cast<std::size_t>(turns));
  }
  bool begin() {
    if (loop->turn() >= turns || loop->aborted()) return false;
    loop->begin_turn();
    return true;
  }
  void finish(unsigned exec_cycles) {
    const hil::TurnRecord r = loop->finish_turn(exec_cycles);
    ts.push_back(r.time_s);
    phases.push_back(r.phase_rad);
  }
  void report(const Scenario& scenario, double wall_s, bool collect_traces,
              ScenarioResult& out) {
    finalize_result(scenario, *loop, loop->turn(), ts, phases, wall_s,
                    out.metrics);
    if (collect_traces) {
      out.trace_time_s = std::move(ts);
      out.trace_phase_rad = std::move(phases);
    }
  }

  std::unique_ptr<hil::TurnLoop> loop;
  std::int64_t turns;
  std::vector<double> ts, phases;
};

/// A sample-accurate scenario: the framework ticks until its reference
/// crossing raises a CGRA request, and complete_cgra_run() acknowledges the
/// iteration. Its own phase trace is the recorded series.
struct FrameworkLane {
  /// Each iteration opens hil.cgra_revolution, as a framework's own engine
  /// does around each kernel run.
  static constexpr bool kRevolutionSpan = true;

  FrameworkLane(const Scenario& scenario, std::uint64_t seed,
                std::shared_ptr<const cgra::CompiledKernel> kernel)
      : loop(std::make_unique<hil::Framework>(
            seeded(scenario.framework, seed), std::move(kernel),
            hil::Framework::ExternalModel{})),
        end_tick(kSampleClock.to_ticks(scenario.duration_s)) {}
  bool begin() {
    const Tick remaining = end_tick - loop->now();
    return remaining > 0 && loop->run_until_cgra_request(remaining);
  }
  void finish(unsigned exec_cycles) { loop->complete_cgra_run(exec_cycles); }
  void report(const Scenario& scenario, double wall_s, bool collect_traces,
              ScenarioResult& out) const {
    const hil::Trace& trace = loop->phase_trace();
    finalize_result(scenario, *loop, loop->cgra_runs(), trace.times(),
                    trace.values(), wall_s, out.metrics);
    if (collect_traces) {
      out.trace_time_s = trace.times();
      out.trace_phase_rad = trace.values();
    }
  }

  std::unique_ptr<hil::Framework> loop;
  Tick end_tick;
};

/// Runs one chunk of kernel-sharing scenarios as lanes of one batched
/// machine. Each round, every lane that has not finished reaches its next
/// kernel iteration, one lane-masked iteration executes them all, and each
/// completes its revolution; lanes that finished drop out of the active set
/// (lane-masked execution keeps the others bit-identical to a one-lane run).
template <class Lane>
void run_chunk(const SweepConfig& config,
               const std::vector<std::size_t>& members,
               const std::shared_ptr<const cgra::CompiledKernel>& kernel,
               std::vector<ScenarioResult>& results) {
  const std::size_t n = members.size();
  const Scenario& first = config.scenarios[members[0]];
  const auto wall_begin = std::chrono::steady_clock::now();

  std::vector<Lane> lanes;
  lanes.reserve(n);
  std::vector<cgra::SensorBus*> buses(n);
  for (std::size_t k = 0; k < n; ++k) {
    lanes.emplace_back(config.scenarios[members[k]],
                       scenario_seed(config.seed, members[k]), kernel);
    buses[k] = &lanes[k].loop->cgra_bus();
  }
  cgra::PerLaneBusAdapter adapter(std::move(buses));
  cgra::BatchedCgraMachine machine(*kernel, n, adapter,
                                   cgra::Precision::kFloat32,
                                   first.loop().exec_tier);
  for (std::size_t k = 0; k < n; ++k) lanes[k].loop->attach_model(machine, k);

  {
    // One span per chunk, named after its first scenario: the trace shows
    // which worker ran which scenarios and for how long.
    obs::ScopedSpan span(first.name);
    std::vector<std::uint32_t> active;
    active.reserve(n);
    for (;;) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (lanes[k].begin()) active.push_back(static_cast<std::uint32_t>(k));
      }
      if (active.empty()) break;
      std::optional<obs::ScopedSpan> revolution;
      if constexpr (Lane::kRevolutionSpan) {
        revolution.emplace("hil.cgra_revolution");
      }
      const unsigned exec =
          machine.run_iteration_lanes(active.data(), active.size());
      for (const std::uint32_t id : active) lanes[id].finish(exec);
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
    lanes[k].report(scenario, wall_s, config.collect_traces, out);
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
/// `kernel_keys[i]` is scenario i's scenario_kernel_key.
std::vector<std::vector<std::size_t>> plan_chunks(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::string>& kernel_keys, std::size_t lanes) {
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    groups[scenario_group_key(scenarios[i], kernel_keys[i])].push_back(i);
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

  // Each scenario's kernel key, built once: the distinct kernels, the chunk
  // plan and the cache lookups all read it.
  std::vector<std::string> keys;
  keys.reserve(config.scenarios.size());
  for (const Scenario& scenario : config.scenarios) {
    keys.push_back(scenario_kernel_key(scenario));
  }

  // Distinct-kernel accounting doubles as the attribution grouping: members
  // of one cache key share one compiled schedule, so one profile. The map
  // orders by key, and its views point into `keys`.
  struct DistinctKernel {
    std::vector<std::size_t> members;  ///< scenario indices, ascending
    std::size_t chunks = 0;            ///< chunks that run it
    std::shared_ptr<const cgra::CompiledKernel> kernel;
  };
  std::map<std::string_view, DistinctKernel> distinct;
  for (std::size_t i = 0; i < config.scenarios.size(); ++i) {
    distinct[keys[i]].members.push_back(i);
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

  // Chunks of kernel-sharing scenarios are the unit of work. Slot `i` of
  // the results is written only by the chunk holding scenario i, and every
  // input of a lane is derived from (config, i) — this is what makes the
  // sweep schedule-independent.
  const auto chunks = plan_chunks(
      config.scenarios, keys, std::max<std::size_t>(1, config.batch_lanes));
  result.batch_chunks = chunks.size();
  obs::Registry::global().counter("sweep.batch.chunks").add(chunks.size());
  for (const auto& members : chunks) {
    ++distinct.find(keys[members[0]])->second.chunks;
  }

  // Every kernel is resolved before any chunk forks, one task per distinct
  // kernel, so no chunk parks on another task's compile and a kernel that
  // fails to compile throws before any chunk runs. Each chunk still makes
  // one cache lookup; only a key's first compiles.
  std::vector<DistinctKernel*> to_resolve;
  to_resolve.reserve(distinct.size());
  for (auto& [key, d] : distinct) to_resolve.push_back(&d);
  runner.parallel_for(0, to_resolve.size(), [&](std::size_t k) {
    DistinctKernel& d = *to_resolve[k];
    const Scenario& first = config.scenarios[d.members[0]];
    const cgra::BeamKernelConfig kc =
        hil::effective_kernel_config(first.loop());
    for (std::size_t n = 0; n < d.chunks; ++n) {
      d.kernel = cache.get(keys[d.members[0]], kc, first.loop().arch,
                           scenario_kernel_kind(first));
    }
  });

  runner.parallel_for(0, chunks.size(), [&](std::size_t c) {
    const auto& members = chunks[c];
    const Scenario& first = config.scenarios[members[0]];
    const auto& kernel = distinct.find(keys[members[0]])->second.kernel;
    if (first.engine == ScenarioEngine::kTurnLevel) {
      run_chunk<TurnLane>(config, members, kernel, result.scenarios);
    } else {
      run_chunk<FrameworkLane>(config, members, kernel, result.scenarios);
    }
    account_done(members.size());
  });

  // Per-kernel cycle attribution: static schedule profile × the summed
  // cgra_runs of the member scenarios. Ordered by cache key (the std::map),
  // so the report section is deterministic at any thread/lane count.
  for (const auto& [key, d] : distinct) {
    KernelAttribution ka;
    ka.profile = cgra::kernel_cycle_profile(*d.kernel);
    for (const std::size_t idx : d.members) {
      ka.iterations +=
          static_cast<std::uint64_t>(result.scenarios[idx].metrics.cgra_runs);
    }
    ka.scenario_indices = d.members;
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
