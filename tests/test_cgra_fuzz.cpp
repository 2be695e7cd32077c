// Property-based fuzzing of the whole CGRA toolflow, full matrix (slow
// tier).
//
// Per seed, a random-but-well-formed kernel (engine_check.hpp) is
// compiled onto a random grid and executed. Properties checked:
//   * the compiler accepts the program (it is well-formed by construction),
//   * the independent schedule verifier passes (done inside schedule_dfg),
//   * on every lane count {1, 3, 8}, tier {interpreter, native} and
//     precision {f32, f64}, with a masked step every fifth iteration, every
//     lane equals its own one-lane cycle-accurate walk bit for bit — node
//     values, states, pipeline registers and sensor writes,
//   * no state ever becomes non-finite (the generator avoids /0 and
//     sqrt of negatives by construction).
// The tier-1 suite runs a small slice of this matrix (test_engine_fuzz.cpp).
#include <gtest/gtest.h>

#include "engine_check.hpp"

namespace citl::cgra {
namespace {

class CgraFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CgraFuzz, FunctionalEqualsCycleAccurateAndStaysFinite) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const std::size_t lanes : {1, 3, 8}) {
    for (const ExecTier tier : {ExecTier::kInterpreter, ExecTier::kNative}) {
      for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
        test_support::check_random_kernel(seed, lanes, tier, p);
        if (HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgraFuzz, ::testing::Range(0, 24));

}  // namespace
}  // namespace citl::cgra
