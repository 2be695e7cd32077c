// Cross-fidelity oracle hunt at the paper's operating point: a seeded
// 32-scenario grid (jump amplitude x controller gain x harmonic) is run
// through three reference/candidate fidelity pairs —
//
//   host-f64  vs serial-f64   exact budget: the host reference evaluates
//                             the kernel source, so any mismatch is a bug
//   serial-f32 vs batched-f32 exact budget: lanes are bit-identical to the
//                             serial machine by construction
//   host-f64  vs serial-f32   mixed-precision budget: f32 drift must stay
//                             inside the declared per-quantity tolerances
//
// and each scenario reports max_ulp_err / first_divergent_turn in the sweep
// metrics. The run exits non-zero if any pair diverges, so CI can gate on it.
//
// The second act is the self-test: one kernel constant (the ring
// circumference literal) is nudged by a single binary32 ULP and the oracle
// is pointed at the perturbed kernel. It must catch the divergence, find
// the first divergent turn, shrink the scenario and (with --artifacts) emit
// a self-contained repro artifact.
//
// Usage: oracle_hunt [duration_ms] [threads]
//                    [--csv out.csv] [--json out.json]
//                    [--artifacts dir] [--quick] [--no-perturb]
//
// `--quick` shrinks the grid to 4 scenarios for CI smoke runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cgra/schedule.hpp"
#include "common.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "hil/turnloop.hpp"
#include "io/table.hpp"
#include "oracle/oracle.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

namespace {

struct FidelityPair {
  const char* name;
  citl::oracle::Fidelity reference;
  citl::oracle::Fidelity candidate;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace citl;

  double duration_ms = 2.5;
  unsigned threads = 0;  // hardware_concurrency
  std::string csv_path, json_path, artifact_dir;
  bool quick = false;
  bool perturb_demo = true;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--artifacts") == 0 && i + 1 < argc) {
      artifact_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-perturb") == 0) {
      perturb_demo = false;
    } else if (positional == 0) {
      duration_ms = std::atof(argv[i]);
      ++positional;
    } else {
      threads = static_cast<unsigned>(std::atoi(argv[i]));
    }
  }

  // The paper's operating point: 800 kHz revolution frequency, gap voltage
  // tuned for f_sync ~ 1.28 kHz; the grid below adds the phase-jump
  // transient the compared trajectories carry.
  const hil::TurnLoopConfig base = examples::base_turnloop_config();

  const std::vector<double> jumps =
      quick ? std::vector<double>{4, 8} : std::vector<double>{4, 6, 8, 10};
  const std::vector<double> gains =
      quick ? std::vector<double>{-5.0}
            : std::vector<double>{-2.0, -3.5, -5.0, -6.5};
  const std::vector<int> harmonics =
      quick ? std::vector<int>{4} : std::vector<int>{4, 8};

  const FidelityPair pairs[] = {
      {"host-f64 vs serial-f64", oracle::Fidelity::kHostF64,
       oracle::Fidelity::kSerialF64},
      {"serial-f32 vs batched-f32", oracle::Fidelity::kSerialF32,
       oracle::Fidelity::kBatchedF32},
      {"host-f64 vs serial-f32", oracle::Fidelity::kHostF64,
       oracle::Fidelity::kSerialF32},
  };

  int exit_code = 0;
  io::Table summary({"fidelity pair", "scenarios", "diverged",
                     "worst max_ulp", "first divergent turn"});
  sweep::SweepResult f32_result;  // kept for --csv / --json export

  for (const FidelityPair& pair : pairs) {
    oracle::OracleSpec spec;
    spec.enabled = true;
    spec.reference = pair.reference;
    spec.candidate = pair.candidate;
    spec.checkpoint_stride = 64;

    sweep::SweepConfig config;
    config.threads = threads;
    config.scenarios = sweep::ScenarioGridBuilder::turn_level(base)
                           .jump_amplitudes_deg(jumps)
                           .gains(gains)
                           .harmonics(harmonics)
                           .jump_timing(1.0, 0.2e-3)
                           .oracle(spec)
                           .duration_s(duration_ms * 1e-3)
                           .build();

    std::printf("oracle sweep %-26s %zu scenarios x %.1f ms ...\n", pair.name,
                config.scenarios.size(), duration_ms);
    sweep::SweepResult r = sweep::run_sweep(config);

    double worst_ulp = 0.0;
    std::int64_t first_div = -1;
    std::size_t diverged = 0;
    for (const auto& s : r.scenarios) {
      worst_ulp = std::max(worst_ulp, s.metrics.max_ulp_err);
      if (s.metrics.first_divergent_turn >= 0) {
        ++diverged;
        first_div = first_div < 0 ? s.metrics.first_divergent_turn
                                  : std::min(first_div,
                                             s.metrics.first_divergent_turn);
        std::printf("  DIVERGED %s at turn %lld (max ulp %.3g)\n",
                    s.name.c_str(),
                    static_cast<long long>(s.metrics.first_divergent_turn),
                    s.metrics.max_ulp_err);
        exit_code = 1;
      }
    }
    summary.add_row(
        {pair.name, std::to_string(r.scenarios.size()),
         std::to_string(diverged), io::Table::num(worst_ulp, 4),
         first_div < 0 ? std::string("-") : std::to_string(first_div)});
    if (pair.candidate == oracle::Fidelity::kSerialF32) {
      f32_result = std::move(r);
    }
  }

  std::printf("\n%s", summary.render().c_str());
  std::printf("(exact pairs must report 0 ulp; the f32 candidate may drift "
              "but stays inside the declared mixed-precision budget)\n");

  if (!csv_path.empty()) {
    sweep::write_metrics_csv(csv_path, f32_result);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    sweep::write_metrics_json(json_path, f32_result);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (perturb_demo) {
    // Self-test: a one-ULP nudge of the circumference literal must be caught
    // at its first divergent turn and shrunk to a minimal repro.
    hil::TurnLoopConfig tl = base;
    tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.2e-3);
    const hil::TurnLoop probe(tl);
    auto perturbed = std::make_shared<cgra::CompiledKernel>(
        oracle::perturb_kernel_constant(probe.kernel(),
                                        tl.kernel.ring.circumference_m,
                                        cgra::Precision::kFloat32));

    oracle::OracleConfig oc;
    oc.reference = oracle::Fidelity::kSerialF32;
    oc.candidate = oracle::Fidelity::kSerialF32;
    oc.candidate_kernel = perturbed;
    oc.turns = static_cast<std::int64_t>(duration_ms * 1e-3 * base.f_ref_hz);
    oc.checkpoint_stride = 64;
    oc.artifact_dir = artifact_dir;
    oc.artifact_stem = "perturbed_circumference";

    std::printf("\nperturbation self-test: ring circumference literal "
                "+1 binary32 ULP, %lld turns ...\n",
                static_cast<long long>(oc.turns));
    const oracle::OracleReport rep = oracle::run_oracle(tl, oc);
    if (!rep.diverged) {
      std::printf("  FAILED: oracle missed the perturbed kernel\n");
      exit_code = 1;
    } else {
      std::printf("  caught: first divergent turn %lld, max ulp %.3g\n",
                  static_cast<long long>(rep.first_divergent_turn),
                  rep.max_ulp_err);
      for (const auto& d : rep.divergences) {
        std::printf("  %-10s expected %.17g actual %.17g (%llu ulp)\n",
                    d.name.c_str(), d.expected, d.actual,
                    static_cast<unsigned long long>(d.ulp));
      }
      std::printf("  shrink: %zu steps -> %lld-turn minimal scenario\n",
                  rep.shrink_log.size(),
                  static_cast<long long>(rep.minimal_turns));
      for (const auto& step : rep.shrink_log) {
        std::printf("    %s\n", step.c_str());
      }
      if (!rep.artifact_json.empty()) {
        std::printf("  repro artifact: %s\n", rep.artifact_json.c_str());
        std::printf("  trace:          %s\n", rep.artifact_csv.c_str());
      }
    }
  }

  std::printf("\n%s\n", exit_code == 0 ? "oracle hunt: all pairs agree"
                                       : "oracle hunt: DIVERGENCE");
  return exit_code;
}
