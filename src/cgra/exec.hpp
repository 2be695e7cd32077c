// Shared scalar operator semantics of the CGRA's processing elements.
//
// Both walks of the engine — the cycle-accurate schedule walk (one lane,
// scalar) and the functional pass (N lanes, structure-of-arrays) — must
// produce bit-identical results; the equivalence tests in test_batch.cpp
// pin it per kernel. The only way to keep that guarantee cheap is to have
// exactly one definition of what each operator computes, so the per-op
// arithmetic lives here and the walks differ only in how they traverse the
// graph.
#pragma once

#include <cmath>

#include "cgra/op.hpp"
#include "core/error.hpp"

namespace citl::cgra::detail {

/// CORDIC rotation (circular mode), the algorithm the overlay's trigonometric
/// PEs implement (§III-C). 28 iterations bring the angular resolution below
/// binary32 epsilon; the gain constant is pre-divided out of the seed.
inline constexpr int kCordicIters = 28;
inline constexpr double kCordicAtan[kCordicIters] = {
    0.7853981633974483,    0.4636476090008061,    0.24497866312686414,
    0.12435499454676144,   0.06241880999595735,   0.031239833430268277,
    0.015623728620476831,  0.007812341060101111,  0.0039062301319669718,
    0.0019531225164788188, 0.0009765621895593195, 0.0004882812111948983,
    0.00024414062014936177, 0.00012207031189367021, 6.103515617420877e-05,
    3.0517578115526096e-05, 1.5258789061315762e-05, 7.62939453110197e-06,
    3.814697265606496e-06,  1.907348632810187e-06,  9.536743164059608e-07,
    4.7683715820308884e-07, 2.3841857910155797e-07, 1.1920928955078068e-07,
    5.960464477539055e-08,  2.9802322387695303e-08, 1.4901161193847655e-08,
    7.450580596923828e-09};
inline constexpr double kCordicGainInv = 0.6072529350088813;
inline constexpr double kCordicPi = 3.14159265358979323846;

/// Argument reduction of the CORDIC: maps the angle into [-pi/2, pi/2] and
/// reports the cosine sign flip. Split out so the batched interpreter can
/// reduce lane-by-lane and then rotate all lanes in one vectorised loop.
template <typename F>
inline void cordic_reduce(F angle, F* z_out, F* flip_out) {
  double z = static_cast<double>(angle);
  z = std::remainder(z, 2.0 * kCordicPi);
  F flip = F(1);
  if (z > 1.5707963267948966) {
    z = kCordicPi - z;
    flip = F(-1);
  } else if (z < -1.5707963267948966) {
    z = -kCordicPi - z;
    flip = F(-1);
  }
  *z_out = F(z);
  *flip_out = flip;
}

template <typename F>
inline void cordic_rotate(F angle, F* out_cos, F* out_sin) {
  F zr, flip;
  cordic_reduce(angle, &zr, &flip);
  F x = F(kCordicGainInv);
  F y = F(0);
  F pow2 = F(1);
  for (int i = 0; i < kCordicIters; ++i) {
    const F xs = x * pow2;  // x * 2^-i computed via running scale
    const F ys = y * pow2;
    if (zr >= F(0)) {
      const F xn = x - ys;
      y = y + xs;
      x = xn;
      zr = zr - F(kCordicAtan[i]);
    } else {
      const F xn = x + ys;
      y = y - xs;
      x = xn;
      zr = zr + F(kCordicAtan[i]);
    }
    pow2 = pow2 * F(0.5);
  }
  *out_cos = flip * x;
  // sin is odd under the flip about ±pi/2? No: sin(pi - z) = sin(z), so the
  // y component keeps its sign when reducing across the vertical axis.
  *out_sin = y;
}

/// fminf/fmaxf as the PEs compute them. C leaves the sign of a zero tie
/// open, and libm and the compiler's inline expansions settle it
/// differently, so the rules are spelled out once here and every path uses
/// them (the native kernels through citl_fmin/citl_fmax in
/// simd_portability.hpp, written the same way): a NaN operand loses to a
/// number, as in C, and -0 orders below +0 whatever the operand order.
template <typename F>
inline F pe_min(F a, F b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == b) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}

template <typename F>
inline F pe_max(F a, F b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  if (a == b) return std::signbit(a) ? b : a;
  return a < b ? b : a;
}

/// Evaluates one arithmetic operator in working precision F, returning the
/// result widened back to double (the overlay stores binary32 everywhere;
/// the simulator keeps doubles and quantises at the operator boundary).
template <typename F>
inline double eval_scalar(OpKind kind, double a, double b, double c) {
  const auto fa = static_cast<F>(a);
  const auto fb = static_cast<F>(b);
  const auto fc = static_cast<F>(c);
  switch (kind) {
    case OpKind::kAdd: return static_cast<double>(fa + fb);
    case OpKind::kSub: return static_cast<double>(fa - fb);
    case OpKind::kMul: return static_cast<double>(fa * fb);
    case OpKind::kDiv: return static_cast<double>(fa / fb);
    case OpKind::kSqrt: return static_cast<double>(std::sqrt(fa));
    case OpKind::kNeg: return static_cast<double>(-fa);
    case OpKind::kAbs: return static_cast<double>(std::fabs(fa));
    case OpKind::kMin: return static_cast<double>(pe_min(fa, fb));
    case OpKind::kMax: return static_cast<double>(pe_max(fa, fb));
    case OpKind::kFloor: return static_cast<double>(std::floor(fa));
    case OpKind::kSin: {
      F cc, ss;
      cordic_rotate(fa, &cc, &ss);
      return static_cast<double>(ss);
    }
    case OpKind::kCos: {
      F cc, ss;
      cordic_rotate(fa, &cc, &ss);
      return static_cast<double>(cc);
    }
    case OpKind::kCmpLt: return fa < fb ? 1.0 : 0.0;
    case OpKind::kCmpLe: return fa <= fb ? 1.0 : 0.0;
    case OpKind::kCmpEq: return fa == fb ? 1.0 : 0.0;
    case OpKind::kSelect:
      return fa != F(0) ? static_cast<double>(fb) : static_cast<double>(fc);
    default: break;
  }
  CITL_CHECK_MSG(false, "eval() called on a non-arithmetic op");
  return 0.0;
}

}  // namespace citl::cgra::detail
