// Portable explicit-SIMD layer for generated CGRA kernels.
//
// The native codegen tier (cgra/codegen.hpp) emits straight-line C11 that
// evaluates one dataflow node across a block of SoA lanes per statement.
// This header gives that code one vocabulary over three back ends:
//
//   CITL_SIMD_AVX2   — x86-64 AVX2: 4 x f64 (citl_vd), 8 x f32 (citl_vf)
//   CITL_SIMD_NEON   — AArch64 NEON: 2 x f64, 4 x f32
//   CITL_SIMD_SCALAR — plain C fallback: width 1 (any toolchain)
//
// Every operation is bit-exact per lane with the scalar semantics in
// cgra/exec.hpp — that is the whole point, and it dictates some choices:
//   * min/max go lane by lane through citl_fmin/citl_fmax, which spell
//     out the PEs' NaN and signed-zero rules (vminpd/vmaxpd and libm
//     fmin/fmax each settle a zero tie their own way),
//   * negation flips the sign bit (0.0 - x would turn -0.0 into +0.0),
//   * select masks use an UNORDERED != 0 compare (NaN selects the "true"
//     arm, exactly like `fa != F(0)` on a scalar NaN),
//   * the CORDIC's quadrant test uses an ORDERED >= compare (NaN takes the
//     "negative" arm, like a scalar `zr >= F(0)`).
//
// The file is self-contained C11 (standard headers only): the build embeds
// it verbatim next to every generated kernel as citl_simd_portability.h, so
// compiled kernels do not include repo headers.
#pragma once

#include <math.h>

#if defined(__AVX2__)
#define CITL_SIMD_AVX2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define CITL_SIMD_NEON 1
#else
#define CITL_SIMD_SCALAR 1
#endif

#if CITL_SIMD_AVX2
// ===========================================================================
// AVX2: citl_vd = 4 doubles, citl_vf = 8 floats.
// ===========================================================================
#include <immintrin.h>

typedef __m256d citl_vd;
typedef __m256d citl_vdm;  // mask: all-ones / all-zeros lanes
#define CITL_VD_WIDTH 4

static inline citl_vd citl_vd_load(const double* p) {
  return _mm256_loadu_pd(p);
}
static inline void citl_vd_store(double* p, citl_vd v) {
  _mm256_storeu_pd(p, v);
}
static inline citl_vd citl_vd_set1(double x) { return _mm256_set1_pd(x); }
static inline citl_vd citl_vd_add(citl_vd a, citl_vd b) {
  return _mm256_add_pd(a, b);
}
static inline citl_vd citl_vd_sub(citl_vd a, citl_vd b) {
  return _mm256_sub_pd(a, b);
}
static inline citl_vd citl_vd_mul(citl_vd a, citl_vd b) {
  return _mm256_mul_pd(a, b);
}
static inline citl_vd citl_vd_div(citl_vd a, citl_vd b) {
  return _mm256_div_pd(a, b);
}
static inline citl_vd citl_vd_sqrt(citl_vd a) { return _mm256_sqrt_pd(a); }
static inline citl_vd citl_vd_floor(citl_vd a) { return _mm256_floor_pd(a); }
static inline citl_vd citl_vd_neg(citl_vd a) {
  return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
}
static inline citl_vd citl_vd_abs(citl_vd a) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
}
static inline citl_vd citl_vd_sel(citl_vdm m, citl_vd a, citl_vd b) {
  return _mm256_blendv_pd(b, a, m);  // m ? a : b, per lane
}
static inline citl_vdm citl_vd_ge0(citl_vd a) {
  return _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_GE_OQ);
}
static inline citl_vdm citl_vd_neq0(citl_vd a) {
  return _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_NEQ_UQ);
}
static inline citl_vd citl_vd_lt(citl_vd a, citl_vd b) {
  return citl_vd_sel(_mm256_cmp_pd(a, b, _CMP_LT_OQ), citl_vd_set1(1.0),
                     citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_le(citl_vd a, citl_vd b) {
  return citl_vd_sel(_mm256_cmp_pd(a, b, _CMP_LE_OQ), citl_vd_set1(1.0),
                     citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_eq(citl_vd a, citl_vd b) {
  return citl_vd_sel(_mm256_cmp_pd(a, b, _CMP_EQ_OQ), citl_vd_set1(1.0),
                     citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_select(citl_vd c, citl_vd a, citl_vd b) {
  return citl_vd_sel(citl_vd_neq0(c), a, b);
}

typedef __m256 citl_vf;
typedef __m256 citl_vfm;
#define CITL_VF_WIDTH 8

/// Generated kernels store every node row as doubles (the machines' SoA
/// layout); the f32 path loads a row of 8 doubles into one float vector and
/// widens back on store. Row values are always binary32-representable
/// (quantised on write), so both conversions are exact.
static inline citl_vf citl_vf_load_d(const double* p) {
  const __m128 lo = _mm256_cvtpd_ps(_mm256_loadu_pd(p));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_loadu_pd(p + 4));
  return _mm256_set_m128(hi, lo);
}
static inline void citl_vf_store_d(double* p, citl_vf v) {
  _mm256_storeu_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  _mm256_storeu_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}
static inline citl_vf citl_vf_set1(float x) { return _mm256_set1_ps(x); }
static inline citl_vf citl_vf_add(citl_vf a, citl_vf b) {
  return _mm256_add_ps(a, b);
}
static inline citl_vf citl_vf_sub(citl_vf a, citl_vf b) {
  return _mm256_sub_ps(a, b);
}
static inline citl_vf citl_vf_mul(citl_vf a, citl_vf b) {
  return _mm256_mul_ps(a, b);
}
static inline citl_vf citl_vf_div(citl_vf a, citl_vf b) {
  return _mm256_div_ps(a, b);
}
static inline citl_vf citl_vf_sqrt(citl_vf a) { return _mm256_sqrt_ps(a); }
static inline citl_vf citl_vf_floor(citl_vf a) { return _mm256_floor_ps(a); }
static inline citl_vf citl_vf_neg(citl_vf a) {
  return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f));
}
static inline citl_vf citl_vf_abs(citl_vf a) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a);
}
static inline citl_vf citl_vf_sel(citl_vfm m, citl_vf a, citl_vf b) {
  return _mm256_blendv_ps(b, a, m);
}
static inline citl_vfm citl_vf_ge0(citl_vf a) {
  return _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_GE_OQ);
}
static inline citl_vfm citl_vf_neq0(citl_vf a) {
  return _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_NEQ_UQ);
}
static inline citl_vf citl_vf_lt(citl_vf a, citl_vf b) {
  return citl_vf_sel(_mm256_cmp_ps(a, b, _CMP_LT_OQ), citl_vf_set1(1.0f),
                     citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_le(citl_vf a, citl_vf b) {
  return citl_vf_sel(_mm256_cmp_ps(a, b, _CMP_LE_OQ), citl_vf_set1(1.0f),
                     citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_eq(citl_vf a, citl_vf b) {
  return citl_vf_sel(_mm256_cmp_ps(a, b, _CMP_EQ_OQ), citl_vf_set1(1.0f),
                     citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_select(citl_vf c, citl_vf a, citl_vf b) {
  return citl_vf_sel(citl_vf_neq0(c), a, b);
}

#elif CITL_SIMD_NEON
// ===========================================================================
// AArch64 NEON: citl_vd = 2 doubles, citl_vf = 4 floats.
// ===========================================================================
#include <arm_neon.h>

typedef float64x2_t citl_vd;
typedef uint64x2_t citl_vdm;
#define CITL_VD_WIDTH 2

static inline citl_vd citl_vd_load(const double* p) { return vld1q_f64(p); }
static inline void citl_vd_store(double* p, citl_vd v) { vst1q_f64(p, v); }
static inline citl_vd citl_vd_set1(double x) { return vdupq_n_f64(x); }
static inline citl_vd citl_vd_add(citl_vd a, citl_vd b) {
  return vaddq_f64(a, b);
}
static inline citl_vd citl_vd_sub(citl_vd a, citl_vd b) {
  return vsubq_f64(a, b);
}
static inline citl_vd citl_vd_mul(citl_vd a, citl_vd b) {
  return vmulq_f64(a, b);
}
static inline citl_vd citl_vd_div(citl_vd a, citl_vd b) {
  return vdivq_f64(a, b);
}
static inline citl_vd citl_vd_sqrt(citl_vd a) { return vsqrtq_f64(a); }
static inline citl_vd citl_vd_floor(citl_vd a) { return vrndmq_f64(a); }
static inline citl_vd citl_vd_neg(citl_vd a) { return vnegq_f64(a); }
static inline citl_vd citl_vd_abs(citl_vd a) { return vabsq_f64(a); }
static inline citl_vd citl_vd_sel(citl_vdm m, citl_vd a, citl_vd b) {
  return vbslq_f64(m, a, b);
}
static inline citl_vdm citl_vd_ge0(citl_vd a) {
  return vcgezq_f64(a);  // ordered: NaN -> false
}
static inline citl_vdm citl_vd_neq0(citl_vd a) {
  return veorq_u64(vceqzq_f64(a), vdupq_n_u64(~0ull));  // NaN != 0 -> true
}
static inline citl_vd citl_vd_lt(citl_vd a, citl_vd b) {
  return citl_vd_sel(vcltq_f64(a, b), citl_vd_set1(1.0), citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_le(citl_vd a, citl_vd b) {
  return citl_vd_sel(vcleq_f64(a, b), citl_vd_set1(1.0), citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_eq(citl_vd a, citl_vd b) {
  return citl_vd_sel(vceqq_f64(a, b), citl_vd_set1(1.0), citl_vd_set1(0.0));
}
static inline citl_vd citl_vd_select(citl_vd c, citl_vd a, citl_vd b) {
  return citl_vd_sel(citl_vd_neq0(c), a, b);
}

typedef float32x4_t citl_vf;
typedef uint32x4_t citl_vfm;
#define CITL_VF_WIDTH 4

static inline citl_vf citl_vf_load_d(const double* p) {
  const float32x2_t lo = vcvt_f32_f64(vld1q_f64(p));
  const float32x2_t hi = vcvt_f32_f64(vld1q_f64(p + 2));
  return vcombine_f32(lo, hi);
}
static inline void citl_vf_store_d(double* p, citl_vf v) {
  vst1q_f64(p, vcvt_f64_f32(vget_low_f32(v)));
  vst1q_f64(p + 2, vcvt_f64_f32(vget_high_f32(v)));
}
static inline citl_vf citl_vf_set1(float x) { return vdupq_n_f32(x); }
static inline citl_vf citl_vf_add(citl_vf a, citl_vf b) {
  return vaddq_f32(a, b);
}
static inline citl_vf citl_vf_sub(citl_vf a, citl_vf b) {
  return vsubq_f32(a, b);
}
static inline citl_vf citl_vf_mul(citl_vf a, citl_vf b) {
  return vmulq_f32(a, b);
}
static inline citl_vf citl_vf_div(citl_vf a, citl_vf b) {
  return vdivq_f32(a, b);
}
static inline citl_vf citl_vf_sqrt(citl_vf a) { return vsqrtq_f32(a); }
static inline citl_vf citl_vf_floor(citl_vf a) { return vrndmq_f32(a); }
static inline citl_vf citl_vf_neg(citl_vf a) { return vnegq_f32(a); }
static inline citl_vf citl_vf_abs(citl_vf a) { return vabsq_f32(a); }
static inline citl_vf citl_vf_sel(citl_vfm m, citl_vf a, citl_vf b) {
  return vbslq_f32(m, a, b);
}
static inline citl_vfm citl_vf_ge0(citl_vf a) { return vcgezq_f32(a); }
static inline citl_vfm citl_vf_neq0(citl_vf a) {
  return veorq_u32(vceqzq_f32(a), vdupq_n_u32(~0u));
}
static inline citl_vf citl_vf_lt(citl_vf a, citl_vf b) {
  return citl_vf_sel(vcltq_f32(a, b), citl_vf_set1(1.0f), citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_le(citl_vf a, citl_vf b) {
  return citl_vf_sel(vcleq_f32(a, b), citl_vf_set1(1.0f), citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_eq(citl_vf a, citl_vf b) {
  return citl_vf_sel(vceqq_f32(a, b), citl_vf_set1(1.0f), citl_vf_set1(0.0f));
}
static inline citl_vf citl_vf_select(citl_vf c, citl_vf a, citl_vf b) {
  return citl_vf_sel(citl_vf_neq0(c), a, b);
}

#else
// ===========================================================================
// Scalar fallback: width-1 wrappers with identical semantics (the dense
// block loop then simply walks lanes one at a time).
// ===========================================================================

typedef struct {
  double v;
} citl_vd;
typedef int citl_vdm;
#define CITL_VD_WIDTH 1

static inline citl_vd citl_vd_load(const double* p) { return (citl_vd){*p}; }
static inline void citl_vd_store(double* p, citl_vd v) { *p = v.v; }
static inline citl_vd citl_vd_set1(double x) { return (citl_vd){x}; }
static inline citl_vd citl_vd_add(citl_vd a, citl_vd b) {
  return (citl_vd){a.v + b.v};
}
static inline citl_vd citl_vd_sub(citl_vd a, citl_vd b) {
  return (citl_vd){a.v - b.v};
}
static inline citl_vd citl_vd_mul(citl_vd a, citl_vd b) {
  return (citl_vd){a.v * b.v};
}
static inline citl_vd citl_vd_div(citl_vd a, citl_vd b) {
  return (citl_vd){a.v / b.v};
}
static inline citl_vd citl_vd_sqrt(citl_vd a) {
  return (citl_vd){sqrt(a.v)};
}
static inline citl_vd citl_vd_floor(citl_vd a) {
  return (citl_vd){floor(a.v)};
}
static inline citl_vd citl_vd_neg(citl_vd a) { return (citl_vd){-a.v}; }
static inline citl_vd citl_vd_abs(citl_vd a) {
  return (citl_vd){fabs(a.v)};
}
static inline citl_vd citl_vd_sel(citl_vdm m, citl_vd a, citl_vd b) {
  return m ? a : b;
}
static inline citl_vdm citl_vd_ge0(citl_vd a) { return a.v >= 0.0; }
static inline citl_vdm citl_vd_neq0(citl_vd a) { return a.v != 0.0; }
static inline citl_vd citl_vd_lt(citl_vd a, citl_vd b) {
  return (citl_vd){a.v < b.v ? 1.0 : 0.0};
}
static inline citl_vd citl_vd_le(citl_vd a, citl_vd b) {
  return (citl_vd){a.v <= b.v ? 1.0 : 0.0};
}
static inline citl_vd citl_vd_eq(citl_vd a, citl_vd b) {
  return (citl_vd){a.v == b.v ? 1.0 : 0.0};
}
static inline citl_vd citl_vd_select(citl_vd c, citl_vd a, citl_vd b) {
  return c.v != 0.0 ? a : b;
}

typedef struct {
  float v;
} citl_vf;
typedef int citl_vfm;
#define CITL_VF_WIDTH 1

static inline citl_vf citl_vf_load_d(const double* p) {
  return (citl_vf){(float)*p};
}
static inline void citl_vf_store_d(double* p, citl_vf v) {
  *p = (double)v.v;
}
static inline citl_vf citl_vf_set1(float x) { return (citl_vf){x}; }
static inline citl_vf citl_vf_add(citl_vf a, citl_vf b) {
  return (citl_vf){a.v + b.v};
}
static inline citl_vf citl_vf_sub(citl_vf a, citl_vf b) {
  return (citl_vf){a.v - b.v};
}
static inline citl_vf citl_vf_mul(citl_vf a, citl_vf b) {
  return (citl_vf){a.v * b.v};
}
static inline citl_vf citl_vf_div(citl_vf a, citl_vf b) {
  return (citl_vf){a.v / b.v};
}
static inline citl_vf citl_vf_sqrt(citl_vf a) {
  return (citl_vf){sqrtf(a.v)};
}
static inline citl_vf citl_vf_floor(citl_vf a) {
  return (citl_vf){floorf(a.v)};
}
static inline citl_vf citl_vf_neg(citl_vf a) { return (citl_vf){-a.v}; }
static inline citl_vf citl_vf_abs(citl_vf a) {
  return (citl_vf){fabsf(a.v)};
}
static inline citl_vf citl_vf_sel(citl_vfm m, citl_vf a, citl_vf b) {
  return m ? a : b;
}
static inline citl_vfm citl_vf_ge0(citl_vf a) { return a.v >= 0.0f; }
static inline citl_vfm citl_vf_neq0(citl_vf a) { return a.v != 0.0f; }
static inline citl_vf citl_vf_lt(citl_vf a, citl_vf b) {
  return (citl_vf){a.v < b.v ? 1.0f : 0.0f};
}
static inline citl_vf citl_vf_le(citl_vf a, citl_vf b) {
  return (citl_vf){a.v <= b.v ? 1.0f : 0.0f};
}
static inline citl_vf citl_vf_eq(citl_vf a, citl_vf b) {
  return (citl_vf){a.v == b.v ? 1.0f : 0.0f};
}
static inline citl_vf citl_vf_select(citl_vf c, citl_vf a, citl_vf b) {
  return c.v != 0.0f ? a : b;
}

#endif

/// fminf/fmaxf as the PEs compute them — pe_min/pe_max in cgra/exec.hpp,
/// spelled the same way: a NaN operand loses to a number, and -0 orders
/// below +0 whatever the operand order. libm's fmin and the hardware
/// min/max instructions each settle a zero tie their own way.
static inline double citl_fmin(double a, double b) {
  if (isnan(a)) return b;
  if (isnan(b)) return a;
  if (a == b) return signbit(a) ? a : b;
  return a < b ? a : b;
}
static inline double citl_fmax(double a, double b) {
  if (isnan(a)) return b;
  if (isnan(b)) return a;
  if (a == b) return signbit(a) ? b : a;
  return a < b ? b : a;
}
static inline float citl_fminf(float a, float b) {
  if (isnan(a)) return b;
  if (isnan(b)) return a;
  if (a == b) return signbit(a) ? a : b;
  return a < b ? a : b;
}
static inline float citl_fmaxf(float a, float b) {
  if (isnan(a)) return b;
  if (isnan(b)) return a;
  if (a == b) return signbit(a) ? b : a;
  return a < b ? b : a;
}

/// Lane-exact min/max: the helpers above, lane by lane.
static inline citl_vd citl_vd_fmin(citl_vd a, citl_vd b) {
  double ta[CITL_VD_WIDTH], tb[CITL_VD_WIDTH];
  citl_vd_store(ta, a);
  citl_vd_store(tb, b);
  for (int i = 0; i < CITL_VD_WIDTH; ++i) ta[i] = citl_fmin(ta[i], tb[i]);
  return citl_vd_load(ta);
}
static inline citl_vd citl_vd_fmax(citl_vd a, citl_vd b) {
  double ta[CITL_VD_WIDTH], tb[CITL_VD_WIDTH];
  citl_vd_store(ta, a);
  citl_vd_store(tb, b);
  for (int i = 0; i < CITL_VD_WIDTH; ++i) ta[i] = citl_fmax(ta[i], tb[i]);
  return citl_vd_load(ta);
}
static inline citl_vf citl_vf_fmin(citl_vf a, citl_vf b) {
  double ta[CITL_VF_WIDTH], tb[CITL_VF_WIDTH];
  citl_vf_store_d(ta, a);
  citl_vf_store_d(tb, b);
  for (int i = 0; i < CITL_VF_WIDTH; ++i) {
    ta[i] = (double)citl_fminf((float)ta[i], (float)tb[i]);
  }
  return citl_vf_load_d(ta);
}
static inline citl_vf citl_vf_fmax(citl_vf a, citl_vf b) {
  double ta[CITL_VF_WIDTH], tb[CITL_VF_WIDTH];
  citl_vf_store_d(ta, a);
  citl_vf_store_d(tb, b);
  for (int i = 0; i < CITL_VF_WIDTH; ++i) {
    ta[i] = (double)citl_fmaxf((float)ta[i], (float)tb[i]);
  }
  return citl_vf_load_d(ta);
}

/// Name of the selected back end (compilation reports, obs labels).
static inline const char* citl_simd_arch(void) {
#if CITL_SIMD_AVX2
  return "avx2";
#elif CITL_SIMD_NEON
  return "neon";
#else
  return "scalar";
#endif
}
