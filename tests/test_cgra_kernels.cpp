// The generated beam-tracking kernel: compiles for every configuration and
// tracks the physics as accurately as the binary64 reference map.
#include <gtest/gtest.h>

#include <cmath>

#include "cgra/kernels.hpp"
#include "cgra/batch.hpp"
#include "api/api.hpp"
#include "cgra/schedule.hpp"
#include "core/units.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "phys/tracker.hpp"

namespace citl::cgra {
namespace {

TEST(BeamKernel, SourceDeclaresExpectedInterface) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.n_bunches = 4;
  kc.pipelined = true;
  const std::string src = beam_kernel_source(kc);
  EXPECT_NE(src.find("param float v_scale"), std::string::npos);
  EXPECT_NE(src.find("state float gamma_r"), std::string::npos);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NE(src.find("state float dt" + std::to_string(j)),
              std::string::npos);
    EXPECT_NE(src.find("state float dgamma" + std::to_string(j)),
              std::string::npos);
  }
  EXPECT_NE(src.find("pipeline_split();"), std::string::npos);
}

TEST(BeamKernel, PlainVariantHasNoSplit) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  EXPECT_EQ(beam_kernel_source(kc).find("pipeline_split"), std::string::npos);
}

TEST(BeamKernel, NoInterpolationAblationDropsSecondReads) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.interpolate = false;
  const std::string src = beam_kernel_source(kc);
  EXPECT_EQ(src.find("float v1"), std::string::npos);
  EXPECT_EQ(src.find("float w1_0"), std::string::npos);
}

TEST(BeamKernel, RejectsBadConfigs) {
  BeamKernelConfig kc;
  kc.gamma0 = 0.9;
  EXPECT_THROW(beam_kernel_source(kc), std::logic_error);
  kc.gamma0 = 1.2;
  kc.n_bunches = 0;
  EXPECT_THROW(beam_kernel_source(kc), std::logic_error);
  kc.n_bunches = 17;
  EXPECT_THROW(beam_kernel_source(kc), std::logic_error);
}

TEST(BeamKernel, CompilesForAllPaperConfigurations) {
  for (int bunches : {1, 4, 8}) {
    for (bool pipelined : {false, true}) {
      BeamKernelConfig kc;
      kc.gamma0 = 1.2258;
      kc.n_bunches = bunches;
      kc.pipelined = pipelined;
      EXPECT_NO_THROW(compile_kernel(beam_kernel_source(kc), grid_5x5()));
    }
  }
}

/// Analytic bus with an exact sinusoidal gap/reference pair, like the
/// TurnLoop uses — here standalone so we can compare the CGRA result with
/// the binary64 TwoParticleTracker.
class SineBus final : public SensorBus {
 public:
  SineBus(double f_ref_hz, double fs_hz, int harmonic, double adc_amp_v)
      : f_ref_(f_ref_hz), fs_(fs_hz), h_(harmonic), amp_(adc_amp_v) {}

  double read(SensorRegion region, double offset) override {
    switch (region) {
      case SensorRegion::kPeriod:
        return 1.0 / f_ref_;
      case SensorRegion::kRefBuf:
        return amp_ * std::sin(kTwoPi * f_ref_ * offset / fs_);
      case SensorRegion::kGapBuf:
        return amp_ * std::sin(kTwoPi * f_ref_ * h_ * offset / fs_ +
                               gap_phase_rad);
      default:
        return 0.0;
    }
  }
  void write(SensorRegion, double, double value) override {
    last_arrival_s = value;
  }

  double gap_phase_rad = 0.0;
  double last_arrival_s = 0.0;

 private:
  double f_ref_, fs_;
  int h_;
  double amp_;
};

TEST(BeamKernel, TracksLikeReferenceMapInFloat64) {
  // In binary64 mode, the kernel (via buffer reads + interpolation on exact
  // sines) must match the TwoParticleTracker map to interpolation accuracy.
  const phys::Ion ion = phys::ion_n14_7plus();
  const phys::Ring ring = phys::sis18(4);
  const double f_ref = 800.0e3;
  const double gamma0 =
      phys::gamma_from_revolution_frequency(f_ref, ring.circumference_m);
  const double vhat = 4860.0;
  const double adc_amp = 0.8;

  BeamKernelConfig kc;
  kc.ion = ion;
  kc.ring = ring;
  kc.gamma0 = gamma0;
  kc.v_scale = vhat / adc_amp;
  const CompiledKernel k = compile_kernel(beam_kernel_source(kc), grid_5x5());
  SineBus bus(f_ref, kc.sample_rate_hz, ring.harmonic, adc_amp);
  bus.gap_phase_rad = deg_to_rad(8.0);  // excite an oscillation
  BatchedCgraMachine m(k, bus, Precision::kFloat64);

  phys::TwoParticleTracker ref(ion, ring, gamma0);
  const double omega_gap = kTwoPi * ring.harmonic * f_ref;
  const double jump = deg_to_rad(8.0);

  for (int turn = 0; turn < 2000; ++turn) {
    m.run_iteration();
    // The kernel reads V_R from the *reference* signal — zero at its own
    // crossing — and V from the jumped gap signal (§IV-B).
    ref.step(phys::GapVoltages{
        0.0, vhat * std::sin(omega_gap * ref.dt_s() + jump)});
  }
  // Oscillation amplitude ~17 ns; agreement to sub-0.5 ns demonstrates the
  // sensing path (buffer addressing + interpolation) is faithful.
  EXPECT_NEAR(api::kernel_state(m, "dt0"), ref.dt_s(), 5e-10);
  EXPECT_NEAR(api::kernel_state(m, "dgamma0") / ref.dgamma(), 1.0, 0.03);
  EXPECT_NEAR(api::kernel_state(m, "gamma_r"), ref.gamma_r(), 1e-6);
}

TEST(BeamKernel, Float32PrecisionStaysUsable) {
  // The real overlay computes in binary32 (§III-C). Over 2000 turns the
  // float32 trajectory stays within a few percent of the float64 one —
  // the precision argument for running this model on FP32 PEs.
  const double f_ref = 800.0e3;
  BeamKernelConfig kc;
  kc.gamma0 = phys::gamma_from_revolution_frequency(f_ref, 216.72);
  kc.v_scale = 4860.0 / 0.8;
  const CompiledKernel k = compile_kernel(beam_kernel_source(kc), grid_5x5());
  SineBus bus32(f_ref, kc.sample_rate_hz, 4, 0.8);
  SineBus bus64(f_ref, kc.sample_rate_hz, 4, 0.8);
  bus32.gap_phase_rad = bus64.gap_phase_rad = deg_to_rad(8.0);
  BatchedCgraMachine m32(k, bus32, Precision::kFloat32);
  BatchedCgraMachine m64(k, bus64, Precision::kFloat64);
  for (int i = 0; i < 2000; ++i) {
    m32.run_iteration();
    m64.run_iteration();
  }
  const double amp = deg_to_rad(8.0) / (kTwoPi * 4 * f_ref);  // rough scale
  EXPECT_NEAR(api::kernel_state(m32, "dt0"), api::kernel_state(m64, "dt0"), 0.1 * amp);
}

TEST(BeamKernel, MultiBunchBucketsAreIndependent) {
  // With a uniform gap waveform every bunch sees the same bucket, so equal
  // initial conditions evolve identically.
  const double f_ref = 800.0e3;
  BeamKernelConfig kc;
  kc.gamma0 = phys::gamma_from_revolution_frequency(f_ref, 216.72);
  kc.v_scale = 4860.0 / 0.8;
  kc.n_bunches = 4;
  const CompiledKernel k = compile_kernel(beam_kernel_source(kc), grid_5x5());
  SineBus bus(f_ref, kc.sample_rate_hz, 4, 0.8);
  bus.gap_phase_rad = deg_to_rad(5.0);
  BatchedCgraMachine m(k, bus, Precision::kFloat64);
  for (int i = 0; i < 500; ++i) m.run_iteration();
  for (int j = 1; j < 4; ++j) {
    EXPECT_NEAR(api::kernel_state(m, "dt" + std::to_string(j)), api::kernel_state(m, "dt0"),
                2e-2 * std::abs(api::kernel_state(m, "dt0")) + 2e-12)
        << "bunch " << j;
  }
}

TEST(BeamKernel, ActuatorWriteIsArrivalTime) {
  const double f_ref = 800.0e3;
  BeamKernelConfig kc;
  kc.gamma0 = phys::gamma_from_revolution_frequency(f_ref, 216.72);
  kc.v_scale = 4860.0 / 0.8;
  const CompiledKernel k = compile_kernel(beam_kernel_source(kc), grid_5x5());
  SineBus bus(f_ref, kc.sample_rate_hz, 4, 0.8);
  BatchedCgraMachine m(k, bus, Precision::kFloat64);
  m.run_iteration();
  // Arrival = dT + dt. With exact period and no excitation both are ~0.
  EXPECT_NEAR(bus.last_arrival_s, 0.0, 1e-11);
}

TEST(DemoOscillator, RunsAndDecays) {
  const CompiledKernel k = compile_kernel(demo_oscillator_source(), grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  double first_amp = 0.0, last_amp = 0.0;
  for (int i = 0; i < 2000; ++i) {
    m.run_iteration();
    const double amp = std::abs(api::kernel_state(m, "x"));
    if (i < 100) first_amp = std::max(first_amp, amp);
    if (i >= 1900) last_amp = std::max(last_amp, amp);
  }
  EXPECT_LT(last_amp, first_amp);
  EXPECT_GT(first_amp, 0.5);
}

}  // namespace
}  // namespace citl::cgra
