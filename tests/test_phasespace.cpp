// Phase-space diagnostics: moments, emittance, profiles, Gaussian fits.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/random.hpp"
#include "phys/phasespace.hpp"

namespace citl::phys {
namespace {

TEST(Moments, KnownSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Moments m = moments(xs);
  EXPECT_DOUBLE_EQ(m.mean, 2.5);
  EXPECT_NEAR(m.rms, std::sqrt(1.25), 1e-12);
}

TEST(Moments, ConstantSampleHasZeroRms) {
  const std::vector<double> xs(100, 7.0);
  const Moments m = moments(xs);
  EXPECT_DOUBLE_EQ(m.mean, 7.0);
  EXPECT_DOUBLE_EQ(m.rms, 0.0);
}

TEST(Moments, EmptySampleThrows) {
  const std::vector<double> xs;
  EXPECT_THROW((void)moments(xs), std::logic_error);
}

TEST(RmsEmittance, UncorrelatedGaussian) {
  Rng rng(4);
  std::vector<double> dt(50'000), dg(50'000);
  for (std::size_t i = 0; i < dt.size(); ++i) {
    dt[i] = rng.gaussian(0.0, 2.0);
    dg[i] = rng.gaussian(0.0, 3.0);
  }
  // ε = σ_dt · σ_dγ for uncorrelated coordinates.
  EXPECT_NEAR(rms_emittance(dt, dg), 6.0, 0.1);
}

TEST(RmsEmittance, PerfectCorrelationIsZero) {
  std::vector<double> dt(1000), dg(1000);
  for (std::size_t i = 0; i < dt.size(); ++i) {
    dt[i] = 0.01 * static_cast<double>(i);
    dg[i] = 3.0 * dt[i];  // a line in phase space has zero area
  }
  EXPECT_NEAR(rms_emittance(dt, dg), 0.0, 1e-9);
}

TEST(RmsEmittance, InvariantUnderCenterShift) {
  Rng rng(5);
  std::vector<double> dt(10'000), dg(10'000);
  for (std::size_t i = 0; i < dt.size(); ++i) {
    dt[i] = rng.gaussian(0.0, 1.0);
    dg[i] = rng.gaussian(0.0, 1.0);
  }
  const double e0 = rms_emittance(dt, dg);
  for (auto& x : dt) x += 100.0;
  for (auto& x : dg) x -= 55.0;
  EXPECT_NEAR(rms_emittance(dt, dg), e0, 1e-9);
}

TEST(Profile, BinsCountAllInWindowParticles) {
  const std::vector<double> dt{-0.9, -0.5, 0.0, 0.2, 0.2, 0.7, 1.5};
  const Profile p = bunch_profile(dt, -1.0, 1.0, 4);
  double total = 0.0;
  for (double c : p.counts) total += c;
  EXPECT_DOUBLE_EQ(total, 6.0);  // 1.5 falls outside the gate
  EXPECT_DOUBLE_EQ(p.bin_width_s(), 0.5);
}

TEST(Profile, BinCentersAreCentered) {
  const std::vector<double> dt{0.0};
  const Profile p = bunch_profile(dt, 0.0, 1.0, 10);
  EXPECT_NEAR(p.bin_center_s(0), 0.05, 1e-12);
  EXPECT_NEAR(p.bin_center_s(9), 0.95, 1e-12);
}

TEST(GaussianFitTest, RecoversMeanAndSigma) {
  Rng rng(6);
  std::vector<double> dt(200'000);
  for (auto& x : dt) x = rng.gaussian(1.0e-8, 3.0e-9);
  const Profile p = bunch_profile(dt, -2.0e-8, 4.0e-8, 120);
  const GaussianFit fit = fit_gaussian(p);
  EXPECT_NEAR(fit.mean_s, 1.0e-8, 1.0e-10);
  EXPECT_NEAR(fit.sigma_s, 3.0e-9, 1.5e-10);
  EXPECT_GT(fit.amplitude, 0.0);
}

TEST(GaussianFitTest, EmptyProfileThrows) {
  const Profile p{0.0, 1.0, std::vector<double>(8, 0.0)};
  EXPECT_THROW((void)fit_gaussian(p), std::logic_error);
}

}  // namespace
}  // namespace citl::phys
