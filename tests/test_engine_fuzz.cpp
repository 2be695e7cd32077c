// Tier-1 slice of the CGRA fuzz matrix (the slow tier's test_cgra_fuzz.cpp
// runs all of it): random kernels on the engine, every lane held bit for bit
// to its own one-lane cycle-accurate walk. Four seeds cover the interpreter
// at 1, 3 and 8 lanes and both precisions; two seeds cover the native tier
// at 3 lanes, where every lane runs the generated SIMD tail.
#include <gtest/gtest.h>

#include "engine_check.hpp"

namespace citl::cgra {
namespace {

class CgraFuzzSmoke : public ::testing::TestWithParam<int> {};

TEST_P(CgraFuzzSmoke, InterpreterLanesMatchCycleAccurate) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const std::size_t lanes : {1, 3, 8}) {
    for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      test_support::check_random_kernel(seed, lanes, ExecTier::kInterpreter,
                                        p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgraFuzzSmoke, ::testing::Range(0, 4));

TEST(CgraFuzzNative, ThreeLanesMatchCycleAccurate) {
  for (const std::uint64_t seed : {0, 1}) {
    for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      test_support::check_random_kernel(seed, 3, ExecTier::kNative, p);
    }
  }
}

}  // namespace
}  // namespace citl::cgra
