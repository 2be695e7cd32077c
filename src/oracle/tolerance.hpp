// Cross-fidelity comparison machinery: fidelity tags, ULP distance, per-
// quantity tolerance budgets and the log2-bucketed ULP histogram the
// differential oracle reports.
//
// The oracle compares the same scenario across simulation fidelities whose
// *defined* agreement differs: serial vs batched execution of one machine
// precision is contractually bit-identical (docs/BATCHING.md), the host
// double-precision reference vs the f64 machine agrees to the last bit as
// long as compiler+scheduler+interpreter preserve the expression trees, and
// f32 machine arithmetic drifts from the f64 reference by an amount the
// budget bounds per quantity. A comparison passes when EITHER the absolute
// or the ULP criterion holds — absolute tolerances cover quantities that
// legitimately cross zero (where relative/ULP distance explodes), ULP
// tolerances cover large-magnitude quantities where a fixed absolute bound
// would be either vacuous or unreachable.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

namespace citl::oracle {

/// A way of executing one closed-loop turn scenario. Host = the kernel
/// source evaluated in binary64 (cgra::SourceEvaluator); serial = a
/// one-lane CGRA engine; batched = lane 0 of a multi-lane engine (with
/// sibling lanes running the identical scenario).
enum class Fidelity : std::uint8_t {
  kHostF64,
  kSerialF32,
  kSerialF64,
  kBatchedF32,
  kBatchedF64,
};

[[nodiscard]] constexpr const char* to_string(Fidelity f) noexcept {
  switch (f) {
    case Fidelity::kHostF64: return "host_f64";
    case Fidelity::kSerialF32: return "serial_f32";
    case Fidelity::kSerialF64: return "serial_f64";
    case Fidelity::kBatchedF32: return "batched_f32";
    case Fidelity::kBatchedF64: return "batched_f64";
  }
  return "?";
}

/// True when the fidelity's machine arithmetic is IEEE binary32.
[[nodiscard]] constexpr bool is_f32(Fidelity f) noexcept {
  return f == Fidelity::kSerialF32 || f == Fidelity::kBatchedF32;
}

/// ULP distance between two doubles: how many representable binary64 values
/// lie between them (0 = bit-identical up to ±0.0). Uses the standard
/// monotone mapping of IEEE bit patterns onto a signed integer line, so the
/// distance is well defined across zero and between the two signs. NaNs:
/// both-NaN compares equal (distance 0 — a reference NaN matched by a
/// candidate NaN is agreement), exactly one NaN is maximal disagreement.
[[nodiscard]] inline std::uint64_t ulp_distance64(double a, double b) noexcept {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return (na && nb) ? 0 : ~std::uint64_t{0};
  const auto key = [](double v) noexcept {
    const auto i = std::bit_cast<std::int64_t>(v);
    return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
  };
  const std::int64_t ka = key(a), kb = key(b);
  return ka >= kb ? static_cast<std::uint64_t>(ka) - static_cast<std::uint64_t>(kb)
                  : static_cast<std::uint64_t>(kb) - static_cast<std::uint64_t>(ka);
}

/// ULP distance in the binary32 lattice. This is the honest metric when one
/// side of the comparison ran in f32: measuring its output against an f64
/// reference in binary64 ULPs would report astronomic numbers for a
/// perfectly rounded result.
[[nodiscard]] inline std::uint64_t ulp_distance32(float a, float b) noexcept {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return (na && nb) ? 0 : ~std::uint64_t{0};
  const auto key = [](float v) noexcept {
    const auto i =
        static_cast<std::int64_t>(std::bit_cast<std::int32_t>(v));
    return i >= 0 ? i : std::numeric_limits<std::int32_t>::min() - i;
  };
  const std::int64_t ka = key(a), kb = key(b);
  return static_cast<std::uint64_t>(ka >= kb ? ka - kb : kb - ka);
}

/// One quantity's tolerance: the comparison passes if the ULP distance is
/// within `ulp_tol` OR the absolute difference is within `abs_tol`.
/// `circular` marks angle quantities compared on the circle (the absolute
/// criterion uses the wrapped difference; a pair straddling the ±π seam is
/// close, not 2π apart).
struct ToleranceSpec {
  double abs_tol = 0.0;
  std::uint64_t ulp_tol = 0;
  bool circular = false;

  [[nodiscard]] bool passes(double abs_diff, std::uint64_t ulp) const noexcept {
    return ulp <= ulp_tol || abs_diff <= abs_tol;
  }
};

/// Per-quantity budgets for the four compared observables of a turn
/// scenario. Defaults (exact()) demand bit identity; for_pair() relaxes
/// them to the measured agreement class of a fidelity pair.
struct ToleranceBudget {
  ToleranceSpec gamma;   ///< reference Lorentz factor gamma_r
  ToleranceSpec dgamma;  ///< bunch-0 energy deviation
  ToleranceSpec dt;      ///< bunch-0 arrival-time deviation [s]
  ToleranceSpec phase;   ///< measured bunch phase [rad] (circular)

  [[nodiscard]] static ToleranceBudget exact() noexcept {
    ToleranceBudget b;
    b.phase.circular = true;
    return b;
  }

  /// The expected agreement class of a fidelity pair:
  ///  * serial vs batched at one precision: bit identity (the SoA engine's
  ///    determinism contract),
  ///  * host f64 vs either f64 machine: bit identity — the host reference
  ///    evaluates the kernel source with the PE operators in binary64, and
  ///    every machine operator in f64 mode is that same double operation,
  ///  * anything vs an f32 machine: f32 rounding accumulated over the run,
  ///    compared in the binary32 lattice (see is_f32 domain selection).
  [[nodiscard]] static ToleranceBudget for_pair(Fidelity a,
                                                Fidelity b) noexcept {
    ToleranceBudget budget = exact();
    if (is_f32(a) != is_f32(b)) {
      // Mixed precision: bound the secular drift of a multi-thousand-turn
      // synchrotron oscillation at f32 working precision (tuned against
      // tests/test_oracle.cpp's seeded grid, with ~8x headroom).
      budget.gamma = {1.0e-6, 1u << 8, false};
      budget.dgamma = {2.0e-6, 1u << 14, false};
      budget.dt = {5.0e-10, 1u << 14, false};
      budget.phase = {2.0e-2, 1u << 14, true};
    }
    return budget;
  }

  [[nodiscard]] const ToleranceSpec& spec_for(
      std::string_view quantity) const noexcept {
    if (quantity == "gamma_r") return gamma;
    if (quantity == "dgamma") return dgamma;
    if (quantity == "dt_s") return dt;
    return phase;
  }
};

/// Histogram of observed ULP distances in log2 buckets: bucket 0 counts
/// exact matches, bucket k >= 1 counts distances in [2^(k-1), 2^k). The
/// shape separates "last-bit noise" (buckets 1-2) from "systematically
/// different computation" (high buckets) at a glance, and the repro
/// artifact embeds it so a regression's magnitude survives into the report.
struct UlpHistogram {
  static constexpr int kBuckets = 65;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t max_ulp = 0;
  std::uint64_t samples = 0;

  void add(std::uint64_t ulp) noexcept {
    ++samples;
    if (ulp > max_ulp) max_ulp = ulp;
    ++buckets[static_cast<std::size_t>(bucket_of(ulp))];
  }

  [[nodiscard]] static int bucket_of(std::uint64_t ulp) noexcept {
    return ulp == 0 ? 0 : std::bit_width(ulp);
  }
};

}  // namespace citl::oracle
