#ifndef FAIRLAW_BASE_SIMD_H_
#define FAIRLAW_BASE_SIMD_H_

// The single sanctioned home for SIMD intrinsics in fairlaw.
//
// Backend selection happens at configure time via the FAIRLAW_SIMD cache
// variable (AUTO / AVX2 / NEON / OFF); CMake translates it into exactly one
// of the compile definitions FAIRLAW_SIMD_AVX2 / FAIRLAW_SIMD_NEON, or
// neither (scalar fallback). There is no runtime dispatch: every
// translation unit in a build sees the same backend, so a build's results
// are a pure function of its configuration.
//
// Contract:
//  * CosSumAffine is a floating-point reduction. Within one build it
//    is deterministic (fixed lane order, fixed tail handling), but
//    the vectorized polynomial cosine may differ from std::cos by a few
//    ulps, so cross-backend float results agree only to tolerance.
//  * The `scalar` nested namespace always provides the reference
//    implementation regardless of backend, for equivalence tests.
//
// The fairlaw_check rule simd-intrinsic bans intrinsic identifiers
// (_mm*/__m*/v*q NEON names, <immintrin.h>, <arm_neon.h>) everywhere
// outside this header.

#include <cmath>
#include <cstddef>

#if defined(FAIRLAW_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace fairlaw::simd {

#if defined(FAIRLAW_SIMD_AVX2)
inline constexpr const char* kBackendName = "avx2";
inline constexpr bool kVectorizedCos = true;
#elif defined(FAIRLAW_SIMD_NEON)
inline constexpr const char* kBackendName = "neon";
inline constexpr bool kVectorizedCos = false;
#else
inline constexpr const char* kBackendName = "scalar";
inline constexpr bool kVectorizedCos = false;
#endif

/// Reference implementations, always available on every backend; tests
/// hold the dispatching functions below to them.
namespace scalar {

/// Sum of cos(scale * x[i] + offset) over i in [0, n).
inline double CosSumAffine(const double* x, size_t n, double scale,
                           double offset) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += std::cos(scale * x[i] + offset);
  return total;
}

}  // namespace scalar

#if defined(FAIRLAW_SIMD_AVX2)

namespace internal {

/// Vectorized cos over one 4-lane register: Cody–Waite range reduction
/// modulo 2*pi, then an even minimax-style polynomial in r^2 (degree 16,
/// max error a few 1e-10 at |r| = pi). FMA is guaranteed under this
/// backend (CMake adds -mfma with -mavx2).
inline __m256d CosLanes(__m256d arg) {
  const __m256d inv_two_pi = _mm256_set1_pd(0x1.45f306dc9c883p-3);
  // 2*pi split into a high part exact in 27 bits and two tails, so
  // arg - k*2pi keeps full precision for |k| up to ~2^26.
  const __m256d two_pi_hi = _mm256_set1_pd(0x1.921fb54p+2);
  const __m256d two_pi_mid = _mm256_set1_pd(0x1.10b46118p-28);
  const __m256d two_pi_lo = _mm256_set1_pd(0x1.313198a2e037p-59);
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(arg, inv_two_pi),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(k, two_pi_hi, arg);
  r = _mm256_fnmadd_pd(k, two_pi_mid, r);
  r = _mm256_fnmadd_pd(k, two_pi_lo, r);
  const __m256d u = _mm256_mul_pd(r, r);
  // cos(r) = sum_{m=0..10} (-1)^m u^m / (2m)!  (Horner in u); the m=11
  // Taylor remainder at |r| = pi is below 1e-10.
  __m256d poly = _mm256_set1_pd(4.1103176233121648e-19);
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(-1.5619206968586225e-16));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(4.7794773323873853e-14));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(-1.1470745597729725e-11));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(2.0876756987868099e-9));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(-2.7557319223985891e-7));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(2.4801587301587302e-5));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(-1.3888888888888889e-3));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(4.1666666666666666e-2));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(-0.5));
  poly = _mm256_fmadd_pd(poly, u, _mm256_set1_pd(1.0));
  return poly;
}

}  // namespace internal

inline double CosSumAffine(const double* x, size_t n, double scale,
                           double offset) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d voffset = _mm256_set1_pd(offset);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d arg =
        _mm256_fmadd_pd(vscale, _mm256_loadu_pd(x + i), voffset);
    acc = _mm256_add_pd(acc, internal::CosLanes(arg));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) total += std::cos(scale * x[i] + offset);
  return total;
}

#else  // NEON and scalar

// No vectorized cosine on NEON yet; the feature map falls back to the
// libm loop (counted by the stats fallback counter).

inline double CosSumAffine(const double* x, size_t n, double scale,
                           double offset) {
  return scalar::CosSumAffine(x, n, scale, offset);
}

#endif

}  // namespace fairlaw::simd

#endif  // FAIRLAW_BASE_SIMD_H_
