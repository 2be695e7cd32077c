#include "oracle/oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/source_eval.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "obs/recorder.hpp"

namespace citl::oracle {
namespace {

constexpr std::array<const char*, kQuantityCount> kQuantityNames = {
    "gamma_r", "dgamma", "dt_s", "phase_rad"};

/// ULP counts enter reports as doubles; everything up to 2^53 is exact and
/// anything beyond (including the one-NaN sentinel) saturates to 2^53.
[[nodiscard]] double ulp_to_double(std::uint64_t ulp) noexcept {
  constexpr std::uint64_t kMax = std::uint64_t{1} << 53;
  return ulp >= kMax ? static_cast<double>(kMax) : static_cast<double>(ulp);
}

struct QuantityCmp {
  double expected = 0.0;
  double actual = 0.0;
  std::uint64_t ulp = 0;
  double abs_diff = 0.0;
  bool pass = true;
};

/// Compares one quantity under its spec. Circular quantities (the measured
/// phase) are compared on the circle: the absolute criterion uses the
/// wrapped difference, and the ULP distance is *synthesised* as the distance
/// from π to π + |Δwrapped| — a pair straddling the ±π seam would otherwise
/// report an astronomic raw ULP distance for a physically tiny disagreement.
[[nodiscard]] QuantityCmp compare_quantity(double expected, double actual,
                                           const ToleranceSpec& spec,
                                           bool f32_domain) {
  QuantityCmp c;
  c.expected = expected;
  c.actual = actual;
  const bool ne = std::isnan(expected), na = std::isnan(actual);
  if (ne || na) {
    if (ne && na) {
      c.ulp = 0;
      c.abs_diff = 0.0;
    } else {
      c.ulp = ~std::uint64_t{0};
      c.abs_diff = std::numeric_limits<double>::infinity();
    }
  } else if (spec.circular) {
    c.abs_diff = std::fabs(wrap_angle(expected - actual));
    c.ulp = f32_domain
                ? ulp_distance32(static_cast<float>(kPi),
                                 static_cast<float>(kPi + c.abs_diff))
                : ulp_distance64(kPi, kPi + c.abs_diff);
  } else {
    c.abs_diff = std::fabs(expected - actual);
    c.ulp = f32_domain ? ulp_distance32(static_cast<float>(expected),
                                        static_cast<float>(actual))
                       : ulp_distance64(expected, actual);
  }
  c.pass = spec.passes(c.abs_diff, c.ulp);
  return c;
}

using TurnCmp = std::array<QuantityCmp, kQuantityCount>;

[[nodiscard]] bool any_fail(const TurnCmp& cmp) noexcept {
  for (const QuantityCmp& q : cmp) {
    if (!q.pass) return true;
  }
  return false;
}

/// One fidelity's live execution of the scenario: the TurnLoop(s) plus the
/// model they execute through. Batched fidelities run `batch_lanes` sibling
/// loops of the identical scenario as lanes of one BatchedCgraMachine and
/// report lane 0 — so the comparison exercises the SoA engine's lane
/// bookkeeping, not just a trivial 1-lane batch.
class FidelityRun {
 public:
  FidelityRun(Fidelity fidelity, const hil::TurnLoopConfig& config,
              std::shared_ptr<const cgra::CompiledKernel> kernel,
              std::size_t batch_lanes)
      : fidelity_(fidelity), kernel_(std::move(kernel)) {
    using hil::TurnLoop;
    switch (fidelity_) {
      case Fidelity::kSerialF32:
        loops_.push_back(std::make_unique<TurnLoop>(config, kernel_));
        break;
      case Fidelity::kSerialF64: {
        auto& loop = *loops_.emplace_back(std::make_unique<TurnLoop>(
            config, kernel_, TurnLoop::ExternalModel{}));
        model_ = std::make_unique<cgra::BatchedCgraMachine>(
            *kernel_, loop.cgra_bus(), cgra::Precision::kFloat64,
            config.exec_tier);
        loop.attach_model(*model_, 0);
        break;
      }
      case Fidelity::kHostF64: {
        auto& loop = *loops_.emplace_back(std::make_unique<TurnLoop>(
            config, kernel_, TurnLoop::ExternalModel{}));
        const cgra::BeamKernelConfig kc = hil::effective_kernel_config(config);
        model_ = std::make_unique<cgra::SourceEvaluator>(
            kernel_,
            config.synthesize_waveform ? cgra::analytic_beam_kernel_source(kc)
                                       : cgra::beam_kernel_source(kc),
            loop.cgra_bus());
        loop.attach_model(*model_, 0);
        break;
      }
      case Fidelity::kBatchedF32:
      case Fidelity::kBatchedF64: {
        std::vector<cgra::SensorBus*> buses;
        buses.reserve(batch_lanes);
        for (std::size_t i = 0; i < batch_lanes; ++i) {
          auto& loop = *loops_.emplace_back(std::make_unique<TurnLoop>(
              config, kernel_, TurnLoop::ExternalModel{}));
          buses.push_back(&loop.cgra_bus());
        }
        adapter_ = std::make_unique<cgra::PerLaneBusAdapter>(std::move(buses));
        model_ = std::make_unique<cgra::BatchedCgraMachine>(
            *kernel_, batch_lanes, *adapter_,
            fidelity_ == Fidelity::kBatchedF64 ? cgra::Precision::kFloat64
                                               : cgra::Precision::kFloat32,
            config.exec_tier);
        for (std::size_t i = 0; i < batch_lanes; ++i) {
          loops_[i]->attach_model(*model_, i);
        }
        break;
      }
    }
    h_gamma_ = cgra::state_handle(*kernel_, "gamma_r");
  }

  /// Runs one revolution on every lane; returns lane 0's observables.
  hil::TurnRecord step() {
    for (auto& loop : loops_) loop->begin_turn();
    const unsigned cycles = model_ != nullptr
                                ? model_->run_iteration_all_lanes()
                                : loops_.front()->model().run_iteration_all_lanes();
    hil::TurnRecord rec0{};
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      const hil::TurnRecord r = loops_[i]->finish_turn(cycles);
      if (i == 0) rec0 = r;
    }
    return rec0;
  }

  [[nodiscard]] double gamma() const {
    return loops_.front()->model().state(h_gamma_, loops_.front()->lane());
  }
  [[nodiscard]] std::int64_t turn() const noexcept {
    return loops_.front()->turn();
  }

  using Snapshot = std::vector<hil::TurnLoop::Checkpoint>;
  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.reserve(loops_.size());
    for (const auto& loop : loops_) s.push_back(loop->checkpoint());
    return s;
  }
  void restore(const Snapshot& s) {
    CITL_CHECK(s.size() == loops_.size());
    for (std::size_t i = 0; i < loops_.size(); ++i) loops_[i]->restore(s[i]);
  }

 private:
  Fidelity fidelity_;
  std::shared_ptr<const cgra::CompiledKernel> kernel_;
  // Destruction order matters: model_ references the loops' buses and the
  // kernel, so it is declared (and therefore destroyed) after them... i.e.
  // declared last, destroyed first.
  std::vector<std::unique_ptr<hil::TurnLoop>> loops_;
  std::unique_ptr<cgra::PerLaneBusAdapter> adapter_;
  std::unique_ptr<cgra::BeamModel> model_;  ///< null: loops_[0] owns machine
  cgra::StateHandle h_gamma_;
};

[[nodiscard]] const ToleranceSpec& spec_of(const ToleranceBudget& budget,
                                           std::size_t q) noexcept {
  switch (q) {
    case 0: return budget.gamma;
    case 1: return budget.dgamma;
    case 2: return budget.dt;
    default: return budget.phase;
  }
}

[[nodiscard]] TurnCmp compare_turn(const hil::TurnRecord& expected,
                                   double expected_gamma,
                                   const hil::TurnRecord& actual,
                                   double actual_gamma,
                                   const ToleranceBudget& budget,
                                   bool f32_domain) {
  const std::array<double, kQuantityCount> e = {expected_gamma,
                                                expected.dgamma, expected.dt_s,
                                                expected.phase_rad};
  const std::array<double, kQuantityCount> a = {actual_gamma, actual.dgamma,
                                                actual.dt_s, actual.phase_rad};
  TurnCmp cmp;
  for (std::size_t q = 0; q < kQuantityCount; ++q) {
    cmp[q] = compare_quantity(e[q], a[q], spec_of(budget, q), f32_domain);
  }
  return cmp;
}

[[nodiscard]] TraceRow make_row(std::int64_t turn, const TurnCmp& cmp) {
  TraceRow row;
  row.turn = turn;
  for (std::size_t q = 0; q < kQuantityCount; ++q) {
    row.expected[q] = cmp[q].expected;
    row.actual[q] = cmp[q].actual;
    row.ulp[q] = ulp_to_double(cmp[q].ulp);
  }
  return row;
}

constexpr std::int64_t kTraceBefore = 8;  ///< trace rows kept pre-divergence
constexpr std::int64_t kTraceAfter = 8;   ///< rows recorded past divergence

void append_budget_json(io::JsonWriter& w, const char* name,
                        const ToleranceSpec& spec) {
  w.key(name).begin_object();
  w.key("abs_tol").value(spec.abs_tol);
  w.key("ulp_tol").value(std::uint64_t{spec.ulp_tol});
  w.key("circular").value(spec.circular);
  w.end_object();
}

void write_artifacts(OracleReport& report,
                     const OracleConfig& oracle_config,
                     const ToleranceBudget& budget,
                     const std::string& candidate_kernel_name) {
  namespace fs = std::filesystem;
  fs::create_directories(oracle_config.artifact_dir);
  const std::string csv_name = oracle_config.artifact_stem + "_trace.csv";
  const std::string json_path = (fs::path(oracle_config.artifact_dir) /
                                 (oracle_config.artifact_stem + ".json"))
                                    .string();
  const std::string csv_path =
      (fs::path(oracle_config.artifact_dir) / csv_name).string();

  // Trace window as CSV, reloadable through parse_csv/csv_parse_number.
  std::vector<io::Column> columns;
  columns.push_back({"turn", {}, {}});
  for (std::size_t q = 0; q < kQuantityCount; ++q) {
    const std::string base = kQuantityNames[q];
    columns.push_back({base + "_expected", {}, {}});
    columns.push_back({base + "_actual", {}, {}});
    columns.push_back({base + "_ulp", {}, {}});
  }
  for (const TraceRow& row : report.trace) {
    columns[0].values.push_back(static_cast<double>(row.turn));
    for (std::size_t q = 0; q < kQuantityCount; ++q) {
      columns[1 + 3 * q].values.push_back(row.expected[q]);
      columns[2 + 3 * q].values.push_back(row.actual[q]);
      columns[3 + 3 * q].values.push_back(row.ulp[q]);
    }
  }
  io::write_csv(csv_path, columns);

  io::JsonWriter w;
  w.begin_object();
  w.key("schema").value("citl-oracle-repro-v1");
  w.key("reference").value(to_string(oracle_config.reference));
  w.key("candidate").value(to_string(oracle_config.candidate));
  w.key("kernel").value(candidate_kernel_name);
  w.key("budget").begin_object();
  append_budget_json(w, "gamma_r", budget.gamma);
  append_budget_json(w, "dgamma", budget.dgamma);
  append_budget_json(w, "dt_s", budget.dt);
  append_budget_json(w, "phase_rad", budget.phase);
  w.end_object();

  // The *minimal* scenario — what a developer replays first.
  const hil::TurnLoopConfig& mc = report.minimal_config;
  w.key("scenario").begin_object();
  w.key("turns").value(report.minimal_turns);
  w.key("f_ref_hz").value(mc.f_ref_hz);
  w.key("gap_voltage_v").value(mc.gap_voltage_v);
  w.key("harmonic").value(static_cast<std::int64_t>(mc.kernel.ring.harmonic));
  w.key("n_bunches").value(static_cast<std::int64_t>(mc.kernel.n_bunches));
  w.key("pipelined").value(mc.kernel.pipelined);
  w.key("synthesize_waveform").value(mc.synthesize_waveform);
  w.key("control_enabled").value(mc.control_enabled);
  w.key("phase_noise_rad").value(mc.phase_noise_rad);
  w.key("noise_seed").value(std::uint64_t{mc.noise_seed});
  w.key("quantise_period").value(mc.quantise_period);
  if (mc.jumps.has_value()) {
    w.key("jumps").begin_object();
    w.key("amplitude_rad").value(mc.jumps->amplitude_rad());
    w.key("interval_s").value(mc.jumps->interval_s());
    w.key("start_s").value(mc.jumps->start_s());
    w.end_object();
  }
  w.key("fault_entries")
      .value(static_cast<std::int64_t>(mc.faults.entries.size()));
  w.key("supervised").value(mc.supervisor.enabled);
  w.end_object();

  w.key("divergence").begin_object();
  w.key("first_divergent_turn").value(report.first_divergent_turn);
  w.key("bisected_turn").value(report.bisected_turn);
  w.key("max_ulp_err").value(report.max_ulp_err);
  w.key("quantities").begin_array();
  for (const QuantityDivergence& d : report.divergences) {
    w.begin_object();
    w.key("name").value(d.name);
    w.key("expected").value(d.expected);
    w.key("actual").value(d.actual);
    w.key("ulp").value(std::uint64_t{d.ulp});
    w.key("abs_diff").value(d.abs_diff);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("ulp_histogram").begin_array();
  for (int b = 0; b < UlpHistogram::kBuckets; ++b) {
    const std::uint64_t count =
        report.histogram.buckets[static_cast<std::size_t>(b)];
    if (count == 0) continue;
    w.begin_object();
    w.key("bucket").value(static_cast<std::int64_t>(b));
    w.key("count").value(count);
    w.end_object();
  }
  w.end_array();

  w.key("shrink").begin_array();
  for (const std::string& line : report.shrink_log) w.value(line);
  w.end_array();
  w.key("trace_csv").value(csv_name);
  w.end_object();

  io::write_text_file(json_path, w.str());
  report.artifact_json = json_path;
  report.artifact_csv = csv_path;
}

}  // namespace

const char* quantity_name(std::size_t q) noexcept {
  return q < kQuantityCount ? kQuantityNames[q] : "?";
}

OracleReport run_oracle(const hil::TurnLoopConfig& loop_config,
                        const OracleConfig& oracle_config) {
  if (oracle_config.turns < 1) {
    throw ConfigError("oracle: turns must be >= 1");
  }
  if (oracle_config.batch_lanes < 1) {
    throw ConfigError("oracle: batch_lanes must be >= 1");
  }
  if (oracle_config.candidate_kernel != nullptr &&
      oracle_config.candidate == Fidelity::kHostF64) {
    throw ConfigError(
        "oracle: a candidate kernel override needs a machine-backed "
        "candidate fidelity — the host reference does not execute the "
        "kernel's context memories",
        ErrorCode::kUnsupported);
  }
  if (oracle_config.reference == oracle_config.candidate &&
      oracle_config.candidate_kernel == nullptr) {
    throw ConfigError(
        "oracle: reference and candidate fidelity are identical; such a "
        "comparison only makes sense with a candidate kernel override");
  }

  const ToleranceBudget budget = oracle_config.budget.value_or(
      ToleranceBudget::for_pair(oracle_config.reference,
                                oracle_config.candidate));
  const bool f32_domain =
      is_f32(oracle_config.reference) || is_f32(oracle_config.candidate);

  // Compile once (through the loop's own path, so the kernel is exactly what
  // a plain TurnLoop would run); both sides share the artifact unless the
  // candidate executes a perturbed override.
  std::shared_ptr<const cgra::CompiledKernel> kernel =
      hil::TurnLoop(loop_config).kernel_ptr();
  std::shared_ptr<const cgra::CompiledKernel> candidate_kernel =
      oracle_config.candidate_kernel != nullptr ? oracle_config.candidate_kernel
                                                : kernel;

  // Fault injector and supervisor state is outside the checkpoint image, so
  // scenarios carrying either are compared turn-by-turn without rollback.
  const bool checkpointable =
      loop_config.faults.empty() && !loop_config.supervisor.enabled;
  const std::int64_t stride =
      checkpointable ? std::max<std::int64_t>(1, oracle_config.checkpoint_stride)
                     : 1;

  auto make_reference = [&] {
    return std::make_unique<FidelityRun>(oracle_config.reference, loop_config,
                                         kernel, oracle_config.batch_lanes);
  };
  auto make_candidate = [&] {
    return std::make_unique<FidelityRun>(oracle_config.candidate, loop_config,
                                         candidate_kernel,
                                         oracle_config.batch_lanes);
  };

  OracleReport report;
  report.minimal_config = loop_config;
  report.minimal_turns = oracle_config.turns;

  auto reference = make_reference();
  auto candidate = make_candidate();

  std::int64_t detect_turn = -1;  ///< 0-based turn of the failing comparison
  TurnCmp detect_cmp{};

  if (stride == 1) {
    // Dense mode: compare every turn; detection IS the exact answer, and the
    // rolling window doubles as the trace head.
    for (std::int64_t t = 0; t < oracle_config.turns; ++t) {
      const hil::TurnRecord er = reference->step();
      const hil::TurnRecord ar = candidate->step();
      const TurnCmp cmp = compare_turn(er, reference->gamma(), ar,
                                       candidate->gamma(), budget, f32_domain);
      report.turns_run = t + 1;
      if (detect_turn < 0) {
        for (const QuantityCmp& q : cmp) report.histogram.add(q.ulp);
        report.trace.push_back(make_row(t, cmp));
        if (report.trace.size() > static_cast<std::size_t>(kTraceBefore + 1)) {
          report.trace.erase(report.trace.begin());
        }
        if (any_fail(cmp)) {
          detect_turn = t;
          detect_cmp = cmp;
        }
      } else {
        report.trace.push_back(make_row(t, cmp));
        if (t - detect_turn >= kTraceAfter) break;
      }
    }
    report.first_divergent_turn = detect_turn;
    report.bisected_turn = detect_turn;
  } else {
    // Strided mode: compare only at window ends, checkpointing every clean
    // boundary; a failing window is bisected with rollback probes and then
    // confirmed with a turn-by-turn scan from the last clean checkpoint.
    FidelityRun::Snapshot ref_cp = reference->snapshot();
    FidelityRun::Snapshot cand_cp = candidate->snapshot();
    std::int64_t ck_turn = 0;

    for (std::int64_t t = 0; t < oracle_config.turns; ++t) {
      const hil::TurnRecord er = reference->step();
      const hil::TurnRecord ar = candidate->step();
      report.turns_run = t + 1;
      const bool boundary =
          ((t + 1) % stride == 0) || (t == oracle_config.turns - 1);
      if (!boundary) continue;
      const TurnCmp cmp = compare_turn(er, reference->gamma(), ar,
                                       candidate->gamma(), budget, f32_domain);
      for (const QuantityCmp& q : cmp) report.histogram.add(q.ulp);
      if (any_fail(cmp)) {
        detect_turn = t;
        break;
      }
      ref_cp = reference->snapshot();
      cand_cp = candidate->snapshot();
      ck_turn = t + 1;
    }

    if (detect_turn >= 0) {
      // Binary search over (ck_turn .. detect_turn] for the first failing
      // turn. Each probe rolls both fidelities back to the clean checkpoint
      // and replays up to the probe turn — bit-exact thanks to the
      // state+pipe-reg checkpoint image.
      std::int64_t lo = ck_turn, hi = detect_turn;
      while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        reference->restore(ref_cp);
        candidate->restore(cand_cp);
        hil::TurnRecord er{}, ar{};
        for (std::int64_t u = ck_turn; u <= mid; ++u) {
          er = reference->step();
          ar = candidate->step();
        }
        const TurnCmp cmp = compare_turn(er, reference->gamma(), ar,
                                         candidate->gamma(), budget,
                                         f32_domain);
        if (any_fail(cmp)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      report.bisected_turn = lo;

      // Confirmation scan: the reported first_divergent_turn comes from a
      // linear sweep, so a non-monotone divergence (pass-fail-pass inside
      // the window) cannot fool the bisection into a wrong answer.
      reference->restore(ref_cp);
      candidate->restore(cand_cp);
      report.trace.clear();
      for (std::int64_t u = ck_turn; u < oracle_config.turns; ++u) {
        const hil::TurnRecord er = reference->step();
        const hil::TurnRecord ar = candidate->step();
        const TurnCmp cmp = compare_turn(er, reference->gamma(), ar,
                                         candidate->gamma(), budget,
                                         f32_domain);
        if (report.first_divergent_turn < 0) {
          report.histogram.add(cmp[0].ulp);
          report.histogram.add(cmp[1].ulp);
          report.histogram.add(cmp[2].ulp);
          report.histogram.add(cmp[3].ulp);
          report.trace.push_back(make_row(u, cmp));
          if (report.trace.size() >
              static_cast<std::size_t>(kTraceBefore + 1)) {
            report.trace.erase(report.trace.begin());
          }
          if (any_fail(cmp)) {
            report.first_divergent_turn = u;
            detect_cmp = cmp;
          }
        } else {
          report.trace.push_back(make_row(u, cmp));
          if (u - report.first_divergent_turn >= kTraceAfter) break;
        }
      }
      CITL_CHECK_MSG(report.first_divergent_turn >= 0,
                     "oracle: window-end divergence vanished in the scan");
    }
  }

  report.diverged = report.first_divergent_turn >= 0;
  report.max_ulp_err = ulp_to_double(report.histogram.max_ulp);

  if (report.diverged) {
    // A divergence is a black-box moment like a Supervisor abort: record it
    // and flush the flight recorder (no-op when no dump path is set).
    obs::FlightRecorder::global().record(
        obs::EventKind::kOracleDivergence, report.first_divergent_turn, 0.0,
        static_cast<double>(report.first_divergent_turn),
        report.max_ulp_err);
    obs::FlightRecorder::global().dump_to_file("oracle_divergence");
    for (std::size_t q = 0; q < kQuantityCount; ++q) {
      if (detect_cmp[q].pass) continue;
      report.divergences.push_back({kQuantityNames[q], detect_cmp[q].expected,
                                    detect_cmp[q].actual, detect_cmp[q].ulp,
                                    detect_cmp[q].abs_diff});
    }
  }

  if (report.diverged && oracle_config.shrink) {
    // Delta-debug the scenario: each axis is dropped and the simplification
    // kept only if the pair still diverges within the (shrinking) turn
    // horizon. Trials compare every turn — they are short by construction.
    hil::TurnLoopConfig min_cfg = loop_config;
    std::int64_t min_turns = report.first_divergent_turn + 1;
    report.shrink_log.push_back(
        "truncate to " + std::to_string(min_turns) +
        " turns: kept (divergence is the final turn)");

    auto first_divergence = [&](const hil::TurnLoopConfig& cfg,
                                std::int64_t turns) -> std::int64_t {
      FidelityRun ref_trial(oracle_config.reference, cfg, kernel,
                            oracle_config.batch_lanes);
      FidelityRun cand_trial(oracle_config.candidate, cfg, candidate_kernel,
                             oracle_config.batch_lanes);
      for (std::int64_t u = 0; u < turns; ++u) {
        const hil::TurnRecord er = ref_trial.step();
        const hil::TurnRecord ar = cand_trial.step();
        if (any_fail(compare_turn(er, ref_trial.gamma(), ar,
                                  cand_trial.gamma(), budget, f32_domain))) {
          return u;
        }
      }
      return -1;
    };

    auto try_simplify = [&](hil::TurnLoopConfig cfg, const std::string& what) {
      const std::int64_t at = first_divergence(cfg, min_turns);
      if (at >= 0) {
        min_cfg = std::move(cfg);
        min_turns = at + 1;
        report.shrink_log.push_back(what + ": kept (still diverges at turn " +
                                    std::to_string(at) + ")");
      } else {
        report.shrink_log.push_back(what + ": reverted (divergence vanished)");
      }
    };

    for (std::size_t i = min_cfg.faults.entries.size(); i-- > 0;) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.faults.entries.erase(cfg.faults.entries.begin() +
                               static_cast<std::ptrdiff_t>(i));
      try_simplify(std::move(cfg), "drop fault entry " + std::to_string(i));
    }
    if (min_cfg.supervisor.enabled) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.supervisor.enabled = false;
      try_simplify(std::move(cfg), "disable supervisor");
    }
    if (min_cfg.jumps.has_value()) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.jumps.reset();
      try_simplify(std::move(cfg), "drop jump programme");
    }
    if (min_cfg.control_enabled) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.control_enabled = false;
      try_simplify(std::move(cfg), "open control loop");
    }
    if (min_cfg.phase_noise_rad > 0.0) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.phase_noise_rad = 0.0;
      try_simplify(std::move(cfg), "zero phase noise");
    }
    if (min_cfg.quantise_period) {
      hil::TurnLoopConfig cfg = min_cfg;
      cfg.quantise_period = false;
      try_simplify(std::move(cfg), "disable period quantisation");
    }

    report.minimal_config = min_cfg;
    report.minimal_turns = min_turns;
  }

  if (report.diverged && !oracle_config.artifact_dir.empty()) {
    write_artifacts(report, oracle_config, budget, candidate_kernel->name);
  }

  return report;
}

cgra::CompiledKernel perturb_kernel_constant(const cgra::CompiledKernel& kernel,
                                             double target_value,
                                             cgra::Precision precision) {
  std::vector<cgra::Node> nodes = kernel.dfg.nodes();
  bool found = false;
  for (cgra::Node& n : nodes) {
    if (n.kind != cgra::OpKind::kConst || n.constant != target_value) continue;
    // The nudge must survive the machine's constant quantisation: an f32
    // machine rounds every constant to binary32, where a one-ulp64 change
    // is invisible.
    n.constant =
        precision == cgra::Precision::kFloat32
            ? static_cast<double>(std::nextafterf(
                  static_cast<float>(target_value),
                  std::numeric_limits<float>::infinity()))
            : std::nextafter(target_value,
                             std::numeric_limits<double>::infinity());
    found = true;
    break;
  }
  if (!found) {
    throw ConfigError("perturb_kernel_constant: kernel '" + kernel.name +
                      "' has no constant equal to " +
                      io::csv_format_number(target_value));
  }
  cgra::CompiledKernel out;
  out.dfg = cgra::Dfg::restore(std::move(nodes), kernel.dfg.states(),
                               kernel.dfg.params(), kernel.dfg.stores());
  out.arch = kernel.arch;
  out.schedule = kernel.schedule;
  out.name = kernel.name + "+1ulp";
  return out;
}

std::vector<TraceRow> load_repro_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ConfigError("load_repro_trace: cannot open '" + path + "'",
                      ErrorCode::kNotFound);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::vector<std::string>> rows =
      io::parse_csv(buffer.str());
  if (rows.empty()) {
    throw ConfigError("load_repro_trace: '" + path + "' is empty");
  }

  std::vector<std::string> expected_header = {"turn"};
  for (std::size_t q = 0; q < kQuantityCount; ++q) {
    const std::string base = kQuantityNames[q];
    expected_header.push_back(base + "_expected");
    expected_header.push_back(base + "_actual");
    expected_header.push_back(base + "_ulp");
  }
  if (rows.front() != expected_header) {
    throw ConfigError("load_repro_trace: '" + path +
                      "' is not an oracle trace (unexpected header)");
  }

  std::vector<TraceRow> trace;
  trace.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& cells = rows[r];
    if (cells.size() != expected_header.size()) {
      throw ConfigError("load_repro_trace: row " + std::to_string(r) +
                        " of '" + path + "' has " +
                        std::to_string(cells.size()) + " cells, expected " +
                        std::to_string(expected_header.size()));
    }
    TraceRow row;
    row.turn = static_cast<std::int64_t>(io::csv_parse_number(cells[0]));
    for (std::size_t q = 0; q < kQuantityCount; ++q) {
      row.expected[q] = io::csv_parse_number(cells[1 + 3 * q]);
      row.actual[q] = io::csv_parse_number(cells[2 + 3 * q]);
      row.ulp[q] = io::csv_parse_number(cells[3 + 3 * q]);
    }
    trace.push_back(row);
  }
  return trace;
}

}  // namespace citl::oracle
