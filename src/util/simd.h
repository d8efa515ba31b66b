// 4-wide double lanes for exact elementwise reductions (particle bounds).
//
// One vector type, `simd::Vec4d`, with three backends selected at compile
// time from architecture macros:
//   * AVX2    — x86-64 built with -mavx2 (e.g. -march=native on AVX2
//               hardware);
//   * NEON    — aarch64, as a pair of float64x2_t;
//   * scalar  — a plain double[4] struct that compiles everywhere.
//
// Only exact operations live here (load, store, broadcast, min, max), so
// every backend returns the same bits.
#pragma once

#if defined(__AVX2__)
#define RFID_VEC4D_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define RFID_VEC4D_NEON 1
#include <arm_neon.h>
#endif

namespace rfid {
namespace simd {

inline constexpr int kLanes = 4;

inline constexpr const char* kBackendName =
#if defined(RFID_VEC4D_AVX2)
    "avx2";
#elif defined(RFID_VEC4D_NEON)
    "neon";
#else
    "scalar";
#endif

#if defined(RFID_VEC4D_AVX2)

struct Vec4d {
  __m256d v;
};

inline Vec4d Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void Store(double* p, Vec4d a) { _mm256_storeu_pd(p, a.v); }
inline Vec4d Set1(double x) { return {_mm256_set1_pd(x)}; }
inline Vec4d Min(Vec4d a, Vec4d b) { return {_mm256_min_pd(a.v, b.v)}; }
inline Vec4d Max(Vec4d a, Vec4d b) { return {_mm256_max_pd(a.v, b.v)}; }

#elif defined(RFID_VEC4D_NEON)

struct Vec4d {
  float64x2_t lo;
  float64x2_t hi;
};

inline Vec4d Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void Store(double* p, Vec4d a) {
  vst1q_f64(p, a.lo);
  vst1q_f64(p + 2, a.hi);
}
inline Vec4d Set1(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline Vec4d Min(Vec4d a, Vec4d b) {
  return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
}
inline Vec4d Max(Vec4d a, Vec4d b) {
  return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
}

#else  // scalar

struct Vec4d {
  double v[4];
};

inline Vec4d Load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void Store(double* p, Vec4d a) {
  for (int i = 0; i < 4; ++i) p[i] = a.v[i];
}
inline Vec4d Set1(double x) { return {{x, x, x, x}}; }
inline Vec4d Min(Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline Vec4d Max(Vec4d a, Vec4d b) {
  Vec4d r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}

#endif  // backend selection

}  // namespace simd
}  // namespace rfid
