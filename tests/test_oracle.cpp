// The cross-fidelity differential oracle: ULP machinery, tolerance budgets,
// fidelity agreement, the divergence scan, scenario shrinking and the repro
// artifact round trip. Every suite name starts with "Oracle" so CI can run
// the subsystem alone with --gtest_filter='Oracle*'.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "hil/turnloop.hpp"
#include "oracle/oracle.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::oracle {
namespace {

hil::TurnLoopConfig paper_loop() {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.2e-3);
  return tl;
}

TEST(OracleUlp, Distance64Basics) {
  EXPECT_EQ(ulp_distance64(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance64(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(ulp_distance64(1.0, next), 1u);
  EXPECT_EQ(ulp_distance64(next, 1.0), 1u);
  // Across zero: distance counts representable values on both sides.
  const double den = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(ulp_distance64(-den, den), 2u);
  EXPECT_EQ(ulp_distance64(-den, 0.0), 1u);
}

TEST(OracleUlp, Distance32Basics) {
  EXPECT_EQ(ulp_distance32(1.0f, 1.0f), 0u);
  EXPECT_EQ(ulp_distance32(0.0f, -0.0f), 0u);
  EXPECT_EQ(ulp_distance32(1.0f, std::nextafterf(1.0f, 2.0f)), 1u);
  const float den = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(ulp_distance32(-den, den), 2u);
}

TEST(OracleUlp, NanHandling) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ulp_distance64(nan, nan), 0u);  // matched NaN = agreement
  EXPECT_EQ(ulp_distance64(nan, 1.0), ~std::uint64_t{0});
  EXPECT_EQ(ulp_distance64(1.0, nan), ~std::uint64_t{0});
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(ulp_distance32(fnan, fnan), 0u);
  EXPECT_EQ(ulp_distance32(fnan, 1.0f), ~std::uint64_t{0});
}

TEST(OracleTolerance, PassesEitherCriterion) {
  const ToleranceSpec spec{1.0e-6, 4, false};
  EXPECT_TRUE(spec.passes(0.5, 3));       // ULP criterion alone
  EXPECT_TRUE(spec.passes(1.0e-7, 900));  // absolute criterion alone
  EXPECT_FALSE(spec.passes(0.5, 900));    // neither
  const ToleranceSpec exact{};
  EXPECT_TRUE(exact.passes(0.0, 0));
  EXPECT_FALSE(exact.passes(1.0e-300, 1));
}

TEST(OracleTolerance, ForPairExactUnlessMixedPrecision) {
  const ToleranceBudget same64 =
      ToleranceBudget::for_pair(Fidelity::kHostF64, Fidelity::kSerialF64);
  EXPECT_EQ(same64.gamma.ulp_tol, 0u);
  EXPECT_EQ(same64.gamma.abs_tol, 0.0);
  EXPECT_TRUE(same64.phase.circular);

  const ToleranceBudget same32 =
      ToleranceBudget::for_pair(Fidelity::kSerialF32, Fidelity::kBatchedF32);
  EXPECT_EQ(same32.dt.ulp_tol, 0u);

  const ToleranceBudget mixed =
      ToleranceBudget::for_pair(Fidelity::kHostF64, Fidelity::kSerialF32);
  EXPECT_GT(mixed.gamma.ulp_tol, 0u);
  EXPECT_GT(mixed.dt.abs_tol, 0.0);
  EXPECT_TRUE(mixed.phase.circular);
}

TEST(OracleHistogram, Log2Buckets) {
  EXPECT_EQ(UlpHistogram::bucket_of(0), 0);
  EXPECT_EQ(UlpHistogram::bucket_of(1), 1);
  EXPECT_EQ(UlpHistogram::bucket_of(2), 2);
  EXPECT_EQ(UlpHistogram::bucket_of(3), 2);
  EXPECT_EQ(UlpHistogram::bucket_of(4), 3);
  EXPECT_EQ(UlpHistogram::bucket_of(~std::uint64_t{0}), 64);
  UlpHistogram h;
  h.add(0);
  h.add(3);
  h.add(3);
  EXPECT_EQ(h.samples, 3u);
  EXPECT_EQ(h.max_ulp, 3u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
}

TEST(Oracle, HostReferenceMatchesSerialF64BitExactly) {
  // The tentpole claim: the kernel source evaluated in binary64 and the f64
  // machine execute the same IEEE operations, so a 600-turn closed-loop run
  // (jumps + active control) agrees to the last bit in every observable.
  OracleConfig oc;
  oc.reference = Fidelity::kHostF64;
  oc.candidate = Fidelity::kSerialF64;
  oc.turns = 600;
  oc.checkpoint_stride = 64;
  oc.shrink = false;
  const OracleReport rep = run_oracle(paper_loop(), oc);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.first_divergent_turn, -1);
  EXPECT_EQ(rep.max_ulp_err, 0.0);
  EXPECT_EQ(rep.turns_run, 600);
}

TEST(Oracle, HostReferenceMatchesSerialF64Analytic) {
  // Same bit-identity claim for the CORDIC waveform-synthesis kernel.
  hil::TurnLoopConfig tl = paper_loop();
  tl.synthesize_waveform = true;
  OracleConfig oc;
  oc.reference = Fidelity::kHostF64;
  oc.candidate = Fidelity::kSerialF64;
  oc.turns = 400;
  oc.shrink = false;
  const OracleReport rep = run_oracle(tl, oc);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.max_ulp_err, 0.0);
}

TEST(Oracle, SerialAndBatchedF32AreBitIdentical) {
  // The SoA engine's determinism contract, checked through the oracle: lane
  // 0 of a 4-lane batch equals the serial machine bit for bit.
  OracleConfig oc;
  oc.reference = Fidelity::kSerialF32;
  oc.candidate = Fidelity::kBatchedF32;
  oc.turns = 400;
  oc.batch_lanes = 4;
  oc.shrink = false;
  const OracleReport rep = run_oracle(paper_loop(), oc);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.max_ulp_err, 0.0);
}

TEST(Oracle, F32StaysWithinDefaultBudgetOfHostReference) {
  // The mixed-precision default budget covers a multi-thousand-turn run.
  OracleConfig oc;
  oc.reference = Fidelity::kHostF64;
  oc.candidate = Fidelity::kSerialF32;
  oc.turns = 2000;
  oc.shrink = false;
  const OracleReport rep = run_oracle(paper_loop(), oc);
  EXPECT_FALSE(rep.diverged) << "first divergent turn "
                             << rep.first_divergent_turn;
  EXPECT_GT(rep.histogram.samples, 0u);
}

TEST(Oracle, PerturbPreservesHandlesAndSchedule) {
  const hil::TurnLoopConfig tl = paper_loop();
  const hil::TurnLoop probe(tl);
  const cgra::CompiledKernel& base = probe.kernel();
  const double target = tl.kernel.ring.circumference_m;
  const cgra::CompiledKernel pk =
      perturb_kernel_constant(base, target, cgra::Precision::kFloat32);
  ASSERT_EQ(pk.dfg.size(), base.dfg.size());
  EXPECT_EQ(pk.schedule.length, base.schedule.length);
  EXPECT_EQ(pk.dfg.params().size(), base.dfg.params().size());
  EXPECT_EQ(pk.dfg.states().size(), base.dfg.states().size());
  // Exactly one constant moved, by one binary32 ULP.
  std::size_t changed = 0;
  for (std::size_t i = 0; i < base.dfg.size(); ++i) {
    const cgra::Node& a = base.dfg.nodes()[i];
    const cgra::Node& b = pk.dfg.nodes()[i];
    ASSERT_EQ(a.kind, b.kind);
    if (a.kind == cgra::OpKind::kConst && a.constant != b.constant) {
      ++changed;
      EXPECT_EQ(static_cast<float>(b.constant),
                std::nextafterf(static_cast<float>(a.constant),
                                std::numeric_limits<float>::infinity()));
    }
  }
  EXPECT_EQ(changed, 1u);
}

TEST(Oracle, PerturbMissingConstantThrows) {
  const hil::TurnLoop probe(paper_loop());
  EXPECT_THROW(perturb_kernel_constant(probe.kernel(), 123.456789,
                                       cgra::Precision::kFloat32),
               ConfigError);
}

TEST(Oracle, RejectsSelfComparisonWithoutOverride) {
  OracleConfig oc;
  oc.reference = Fidelity::kSerialF32;
  oc.candidate = Fidelity::kSerialF32;
  EXPECT_THROW((void)run_oracle(paper_loop(), oc), ConfigError);
}

TEST(Oracle, RejectsKernelOverrideForHostCandidate) {
  const hil::TurnLoop probe(paper_loop());
  OracleConfig oc;
  oc.reference = Fidelity::kSerialF64;
  oc.candidate = Fidelity::kHostF64;
  oc.candidate_kernel = probe.kernel_ptr();
  EXPECT_THROW((void)run_oracle(paper_loop(), oc), ConfigError);
}

TEST(Oracle, PerturbedKernelYieldsMinimalRepro) {
  // The acceptance scenario: nudge one kernel constant (the ring
  // circumference literal) by one binary32 ULP and let the oracle find it.
  const hil::TurnLoopConfig tl = paper_loop();
  const hil::TurnLoop probe(tl);
  auto perturbed = std::make_shared<cgra::CompiledKernel>(
      perturb_kernel_constant(probe.kernel(), tl.kernel.ring.circumference_m,
                              cgra::Precision::kFloat32));

  OracleConfig oc;
  oc.reference = Fidelity::kSerialF32;
  oc.candidate = Fidelity::kSerialF32;
  oc.candidate_kernel = perturbed;
  oc.turns = 2000;
  oc.checkpoint_stride = 64;
  oc.artifact_dir = ::testing::TempDir() + "citl_oracle_repro";
  oc.artifact_stem = "perturbed_lr";

  const OracleReport rep = run_oracle(tl, oc);
  ASSERT_TRUE(rep.diverged);
  ASSERT_GE(rep.first_divergent_turn, 0);
  ASSERT_FALSE(rep.divergences.empty());
  EXPECT_GT(rep.max_ulp_err, 0.0);

  // Shrinking kept the divergence while simplifying the scenario: the
  // perturbed constant needs no jump programme and no closed loop.
  ASSERT_FALSE(rep.shrink_log.empty());
  EXPECT_LE(rep.minimal_turns, rep.first_divergent_turn + 1);
  EXPECT_FALSE(rep.minimal_config.jumps.has_value());
  EXPECT_FALSE(rep.minimal_config.control_enabled);

  // The repro artifact exists and its trace reloads through parse_csv.
  ASSERT_FALSE(rep.artifact_csv.empty());
  ASSERT_FALSE(rep.artifact_json.empty());
  const std::vector<TraceRow> trace = load_repro_trace(rep.artifact_csv);
  ASSERT_EQ(trace.size(), rep.trace.size());
  bool has_divergent_row = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].turn, rep.trace[i].turn);
    for (std::size_t q = 0; q < kQuantityCount; ++q) {
      EXPECT_EQ(trace[i].expected[q], rep.trace[i].expected[q]);
      EXPECT_EQ(trace[i].actual[q], rep.trace[i].actual[q]);
      EXPECT_EQ(trace[i].ulp[q], rep.trace[i].ulp[q]);
    }
    if (trace[i].turn == rep.first_divergent_turn) has_divergent_row = true;
  }
  EXPECT_TRUE(has_divergent_row);

  // The JSON names its schema and the fidelity pair as strings.
  std::ifstream in(rep.artifact_json, std::ios::binary);
  ASSERT_TRUE(in) << rep.artifact_json;
  std::ostringstream json;
  json << in.rdbuf();
  for (const char* field :
       {R"("schema":"citl-oracle-repro-v1")", R"("reference":"serial_f32")",
        R"("candidate":"serial_f32")"}) {
    EXPECT_NE(json.str().find(field), std::string::npos)
        << field << " missing from " << json.str();
  }
}

TEST(Oracle, StridedScanAgreesWithDenseComparison) {
  // The same perturbed pair strided (rolled back to the last clean
  // checkpoint, then scanned) and dense (every turn compared) must report
  // the same first divergent turn, trace rows and divergences. The
  // circumference literal diverges at turn 0, inside the first window; the
  // sample-rate literal first diverges at turn 344, so stride 64 scans from
  // the checkpoint at turn 320 and stride 128 from the one at turn 256.
  // Histograms are not compared: strided mode also samples window ends.
  const hil::TurnLoopConfig tl = paper_loop();
  const hil::TurnLoop probe(tl);
  struct Case {
    double literal;
    std::int64_t first_divergent_turn;
  };
  for (const Case& c : {Case{tl.kernel.ring.circumference_m, 0},
                        Case{tl.kernel.sample_rate_hz, 344}}) {
    SCOPED_TRACE(c.literal);
    OracleConfig oc;
    oc.reference = Fidelity::kSerialF32;
    oc.candidate = Fidelity::kSerialF32;
    oc.candidate_kernel = std::make_shared<cgra::CompiledKernel>(
        perturb_kernel_constant(probe.kernel(), c.literal,
                                cgra::Precision::kFloat32));
    oc.turns = 2000;
    oc.shrink = false;
    oc.checkpoint_stride = 1;
    const OracleReport dense = run_oracle(tl, oc);
    ASSERT_TRUE(dense.diverged);
    EXPECT_EQ(dense.first_divergent_turn, c.first_divergent_turn);

    for (const std::int64_t stride : {64, 128}) {
      SCOPED_TRACE(stride);
      oc.checkpoint_stride = stride;
      const OracleReport strided = run_oracle(tl, oc);
      ASSERT_TRUE(strided.diverged);
      EXPECT_EQ(strided.first_divergent_turn, dense.first_divergent_turn);
      ASSERT_EQ(strided.trace.size(), dense.trace.size());
      for (std::size_t i = 0; i < dense.trace.size(); ++i) {
        EXPECT_EQ(strided.trace[i].turn, dense.trace[i].turn);
        EXPECT_EQ(strided.trace[i].expected, dense.trace[i].expected);
        EXPECT_EQ(strided.trace[i].actual, dense.trace[i].actual);
        EXPECT_EQ(strided.trace[i].ulp, dense.trace[i].ulp);
      }
      ASSERT_EQ(strided.divergences.size(), dense.divergences.size());
      for (std::size_t i = 0; i < dense.divergences.size(); ++i) {
        EXPECT_EQ(strided.divergences[i].name, dense.divergences[i].name);
        EXPECT_EQ(strided.divergences[i].expected,
                  dense.divergences[i].expected);
        EXPECT_EQ(strided.divergences[i].actual, dense.divergences[i].actual);
        EXPECT_EQ(strided.divergences[i].ulp, dense.divergences[i].ulp);
        EXPECT_EQ(strided.divergences[i].abs_diff,
                  dense.divergences[i].abs_diff);
      }
    }
  }
}

TEST(Oracle, FaultScenarioForcesDenseComparisonAndStillAgrees) {
  // Fault-injector state is outside the checkpoint image, so the oracle
  // falls back to turn-by-turn comparison — and both fidelities see the
  // identical scripted fault, so they still agree (including the NaN turns
  // a reference dropout produces: matched NaN is agreement).
  hil::TurnLoopConfig tl = paper_loop();
  tl.faults.entries.push_back(fault::FaultSpec{
      .kind = fault::FaultKind::kRefDropout,
      .start_tick = 50,
      .duration = 3,
      .target = {}});
  OracleConfig oc;
  oc.reference = Fidelity::kHostF64;
  oc.candidate = Fidelity::kSerialF64;
  oc.turns = 200;
  oc.checkpoint_stride = 64;  // ignored: fault plan forces stride 1
  oc.shrink = false;
  const OracleReport rep = run_oracle(tl, oc);
  EXPECT_FALSE(rep.diverged) << "first divergent turn "
                             << rep.first_divergent_turn;
}

TEST(Oracle, LoadReproTraceRejectsForeignCsv) {
  const std::string path = ::testing::TempDir() + "not_a_trace.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n1,2\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_repro_trace(path), ConfigError);
  EXPECT_THROW((void)load_repro_trace(::testing::TempDir() + "missing.csv"),
               ConfigError);
}

}  // namespace
}  // namespace citl::oracle
