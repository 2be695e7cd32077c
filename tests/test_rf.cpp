// RF programme / piecewise-linear ramps.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/units.hpp"
#include "phys/rf.hpp"

namespace citl::phys {
namespace {

TEST(Ramp, ConstantEverywhere) {
  const Ramp r(42.0);
  EXPECT_DOUBLE_EQ(r.at(-1.0), 42.0);
  EXPECT_DOUBLE_EQ(r.at(0.0), 42.0);
  EXPECT_DOUBLE_EQ(r.at(1e9), 42.0);
}

TEST(Ramp, LinearInterpolation) {
  Ramp r;
  r.add_point(0.0, 0.0);
  r.add_point(2.0, 10.0);
  EXPECT_DOUBLE_EQ(r.at(0.5), 2.5);
  EXPECT_DOUBLE_EQ(r.at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(r.at(2.0), 10.0);
}

TEST(Ramp, ClampsOutsideBreakpoints) {
  Ramp r;
  r.add_point(1.0, 5.0);
  r.add_point(2.0, 7.0);
  EXPECT_DOUBLE_EQ(r.at(0.0), 5.0);
  EXPECT_DOUBLE_EQ(r.at(3.0), 7.0);
}

TEST(Ramp, MultiSegment) {
  Ramp r;
  r.add_point(0.0, 0.0);
  r.add_point(1.0, 10.0);
  r.add_point(3.0, 10.0);   // plateau
  r.add_point(4.0, 0.0);    // ramp down
  EXPECT_DOUBLE_EQ(r.at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(r.at(2.0), 10.0);
  EXPECT_DOUBLE_EQ(r.at(3.5), 5.0);
}

TEST(Ramp, RejectsUnorderedBreakpoints) {
  Ramp r;
  r.add_point(1.0, 0.0);
  EXPECT_THROW(r.add_point(0.5, 1.0), std::logic_error);
}

TEST(Ramp, EmptyRampThrowsOnEvaluation) {
  const Ramp r;
  EXPECT_TRUE(r.empty());
  EXPECT_THROW((void)r.at(0.0), std::logic_error);
}

TEST(RfProgramme, StationaryHasNoNetAcceleration) {
  const RfProgramme p = RfProgramme::stationary(5000.0);
  for (double t : {0.0, 0.1, 7.0}) {
    EXPECT_DOUBLE_EQ(p.amplitude_v(t), 5000.0);
    EXPECT_DOUBLE_EQ(p.sync_phase_rad(t), 0.0);
    EXPECT_DOUBLE_EQ(p.reference_voltage_v(t), 0.0);
  }
}

TEST(RfProgramme, LinearRampAccelerates) {
  const RfProgramme p =
      RfProgramme::linear_ramp(2000.0, 8000.0, deg_to_rad(30.0), 1.0);
  EXPECT_DOUBLE_EQ(p.amplitude_v(0.0), 2000.0);
  EXPECT_DOUBLE_EQ(p.amplitude_v(1.0), 8000.0);
  EXPECT_DOUBLE_EQ(p.amplitude_v(0.5), 5000.0);
  // Reference voltage = V̂ sin(φ_s) grows along the ramp.
  EXPECT_DOUBLE_EQ(p.reference_voltage_v(0.0), 0.0);
  EXPECT_NEAR(p.reference_voltage_v(1.0), 8000.0 * 0.5, 1e-9);
  EXPECT_GT(p.reference_voltage_v(0.7), p.reference_voltage_v(0.3));
}

}  // namespace
}  // namespace citl::phys
