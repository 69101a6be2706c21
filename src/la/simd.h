#ifndef UMVSC_LA_SIMD_H_
#define UMVSC_LA_SIMD_H_

// Portable fixed-width vector abstraction for the dense kernels.
//
// Every backend exposes the SAME logical shape — a register of
// kSimdLanes = 4 doubles — so the accumulation grid of a kernel written
// against this header is a pure function of the problem shape, never of
// the instruction set:
//
//   * AVX2   : one 256-bit register            (4 lanes)
//   * SSE2   : two 128-bit registers           (2 + 2 lanes)
//   * NEON   : two 128-bit registers           (2 + 2 lanes)
//   * scalar : four plain doubles              (4 "lanes")
//
// The backend is selected at COMPILE time from the architecture macros
// (override with -DUMVSC_DISABLE_SIMD to force the scalar fallback); the
// kernels in gemm_kernel.h run NativeVec4, the selected backend.
//
// Determinism: all backends perform the identical sequence of IEEE-754
// mul/add operations per lane — MulAdd is an UNFUSED multiply-then-add
// everywhere (no FMA intrinsics), and ReduceAdd combines lanes on one
// fixed tree: (l0 + l2) + (l1 + l3). SIMD and scalar builds therefore
// agree bitwise on x86; on targets whose compiler contracts the
// scalar fallback's a*b + c into an FMA (e.g. aarch64 at the default
// -ffp-contract=fast), the two backends may differ by at most 1 ULP per
// accumulated term (see docs/THREADING.md, "SIMD accumulation grid").

#include <cstddef>

#if !defined(UMVSC_DISABLE_SIMD)
#if defined(__AVX2__)
#define UMVSC_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define UMVSC_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define UMVSC_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !UMVSC_DISABLE_SIMD

namespace umvsc::la::simd {

/// Logical lane count of every backend. Kernels written against this
/// header accumulate on a fixed grid of kSimdLanes-wide blocks.
inline constexpr std::size_t kSimdLanes = 4;

/// Scalar emulation of the 4-lane register: always available, it is
/// NativeVec4 in builds with -DUMVSC_DISABLE_SIMD and on targets without
/// AVX2/SSE2/NEON. Lane-for-lane it performs the same arithmetic as the
/// hardware backends.
struct ScalarVec4 {
  static constexpr const char* kName = "scalar";
  struct Reg {
    double v[kSimdLanes];
  };
  static Reg Zero() { return Reg{{0.0, 0.0, 0.0, 0.0}}; }
  static Reg Broadcast(double x) { return Reg{{x, x, x, x}}; }
  static Reg Load(const double* p) { return Reg{{p[0], p[1], p[2], p[3]}}; }
  static void Store(double* p, Reg r) {
    p[0] = r.v[0];
    p[1] = r.v[1];
    p[2] = r.v[2];
    p[3] = r.v[3];
  }
  static Reg Add(Reg a, Reg b) {
    return Reg{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
                a.v[3] + b.v[3]}};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
                a.v[3] * b.v[3]}};
  }
  /// acc + a·b with the product rounded before the add (unfused), matching
  /// the hardware backends' separate mul/add instructions.
  static Reg MulAdd(Reg a, Reg b, Reg acc) { return Add(acc, Mul(a, b)); }
  /// Fixed-tree horizontal sum: (l0 + l2) + (l1 + l3) — the natural order
  /// for the split-register backends, adopted by all of them.
  static double ReduceAdd(Reg r) {
    return (r.v[0] + r.v[2]) + (r.v[1] + r.v[3]);
  }
};

#if defined(UMVSC_SIMD_AVX2)

struct Avx2Vec4 {
  static constexpr const char* kName = "avx2";
  using Reg = __m256d;
  static Reg Zero() { return _mm256_setzero_pd(); }
  static Reg Broadcast(double x) { return _mm256_set1_pd(x); }
  static Reg Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Reg r) { _mm256_storeu_pd(p, r); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  // Deliberately NOT _mm256_fmadd_pd: fused rounding would diverge from
  // the scalar fallback and the SSE2/NEON backends.
  static Reg MulAdd(Reg a, Reg b, Reg acc) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
  static double ReduceAdd(Reg r) {
    const __m128d lo = _mm256_castpd256_pd128(r);       // [l0, l1]
    const __m128d hi = _mm256_extractf128_pd(r, 1);     // [l2, l3]
    const __m128d s = _mm_add_pd(lo, hi);               // [l0+l2, l1+l3]
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};
using NativeVec4 = Avx2Vec4;

#elif defined(UMVSC_SIMD_SSE2)

struct Sse2Vec4 {
  static constexpr const char* kName = "sse2";
  struct Reg {
    __m128d lo;  // lanes 0, 1
    __m128d hi;  // lanes 2, 3
  };
  static Reg Zero() { return Reg{_mm_setzero_pd(), _mm_setzero_pd()}; }
  static Reg Broadcast(double x) { return Reg{_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static Reg Load(const double* p) {
    return Reg{_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void Store(double* p, Reg r) {
    _mm_storeu_pd(p, r.lo);
    _mm_storeu_pd(p + 2, r.hi);
  }
  static Reg Add(Reg a, Reg b) {
    return Reg{_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static Reg MulAdd(Reg a, Reg b, Reg acc) { return Add(acc, Mul(a, b)); }
  static double ReduceAdd(Reg r) {
    const __m128d s = _mm_add_pd(r.lo, r.hi);  // [l0+l2, l1+l3]
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};
using NativeVec4 = Sse2Vec4;

#elif defined(UMVSC_SIMD_NEON)

struct NeonVec4 {
  static constexpr const char* kName = "neon";
  struct Reg {
    float64x2_t lo;  // lanes 0, 1
    float64x2_t hi;  // lanes 2, 3
  };
  static Reg Zero() { return Reg{vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static Reg Broadcast(double x) { return Reg{vdupq_n_f64(x), vdupq_n_f64(x)}; }
  static Reg Load(const double* p) {
    return Reg{vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static void Store(double* p, Reg r) {
    vst1q_f64(p, r.lo);
    vst1q_f64(p + 2, r.hi);
  }
  static Reg Add(Reg a, Reg b) {
    return Reg{vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static Reg Mul(Reg a, Reg b) {
    return Reg{vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  // vmulq + vaddq, not vfmaq: unfused to match the other backends.
  static Reg MulAdd(Reg a, Reg b, Reg acc) { return Add(acc, Mul(a, b)); }
  static double ReduceAdd(Reg r) {
    const float64x2_t s = vaddq_f64(r.lo, r.hi);  // [l0+l2, l1+l3]
    return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
  }
};
using NativeVec4 = NeonVec4;

#else

using NativeVec4 = ScalarVec4;

#endif

/// Name of the compile-time-selected backend.
inline const char* NativeBackendName() { return NativeVec4::kName; }

// ---------------------------------------------------------------------------
// Generic lane kernels. Each is a template over the backend V: gemm_kernel.h
// instantiates the native backend, and tests instantiate ScalarVec4 on the
// same accumulation grid to check the two agree.
// ---------------------------------------------------------------------------

/// x·y with the fixed lane grid: lane l accumulates elements l, l+4, l+8, …
/// of the 4-aligned prefix; the lanes combine on the fixed (l0+l2)+(l1+l3)
/// tree; the tail (n mod 4 elements) is then added serially. The value is a
/// pure function of n — identical for every backend modulo FMA contraction.
template <class V>
inline double DotLanes(const double* x, const double* y, std::size_t n) {
  typename V::Reg acc = V::Zero();
  std::size_t i = 0;
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    acc = V::MulAdd(V::Load(x + i), V::Load(y + i), acc);
  }
  double s = V::ReduceAdd(acc);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

/// y[i] += alpha·x[i]. Per-element arithmetic is identical to the scalar
/// loop (one unfused mul/add per element), so vectorizing is value-neutral.
template <class V>
inline void AxpyLanes(double alpha, const double* x, double* y,
                      std::size_t n) {
  const typename V::Reg a = V::Broadcast(alpha);
  std::size_t i = 0;
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    V::Store(y + i, V::MulAdd(a, V::Load(x + i), V::Load(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// c[i] = a[i]·b[i] (elementwise product; value-neutral vectorization).
template <class V>
inline void MulLanes(const double* a, const double* b, double* c,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + kSimdLanes <= n; i += kSimdLanes) {
    V::Store(c + i, V::Mul(V::Load(a + i), V::Load(b + i)));
  }
  for (; i < n; ++i) c[i] = a[i] * b[i];
}

}  // namespace umvsc::la::simd

#endif  // UMVSC_LA_SIMD_H_
