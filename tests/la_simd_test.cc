// The SIMD abstraction contract (src/la/simd.h): every backend performs
// the identical sequence of unfused IEEE-754 operations on the fixed
// 4-lane grid, so the native backend and the scalar emulation agree
// bitwise on x86 (no FMA anywhere) and to <= 1 ULP per accumulated term on
// targets whose compiler contracts the scalar fallback (aarch64 at
// -ffp-contract=fast). The ULP-bounded assertions encode that documented
// bound; the bitwise assertions are additionally enabled on x86.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "la/simd.h"

namespace umvsc::la {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kBitwiseBackends = true;
#else
constexpr bool kBitwiseBackends = false;
#endif

std::vector<double> TestSignal(std::size_t n, double phase) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.37 * static_cast<double>(i) + phase) +
           0.001 * static_cast<double>(i);
  }
  return v;
}

// Distance in representable doubles (same-sign finite inputs).
std::int64_t UlpDistance(double a, double b) {
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if ((ia < 0) != (ib < 0)) return a == b ? 0 : INT64_MAX;
  return std::abs(ia - ib);
}

// The documented lane grid, written out longhand: lane l accumulates
// elements l, l+4, l+8, ... and the lanes combine as (l0+l2)+(l1+l3),
// then the tail adds serially.
double ReferenceDotGrid(const double* x, const double* y, std::size_t n) {
  double lane[simd::kSimdLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + simd::kSimdLanes <= n; i += simd::kSimdLanes) {
    for (std::size_t l = 0; l < simd::kSimdLanes; ++l) {
      lane[l] += x[i + l] * y[i + l];
    }
  }
  double s = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

TEST(SimdTest, BackendNamesAreConsistent) {
  const std::string native = simd::NativeBackendName();
  EXPECT_TRUE(native == "avx2" || native == "sse2" || native == "neon" ||
              native == "scalar")
      << native;
}

TEST(SimdTest, LanePrimitivesMatchScalarEmulation) {
  using V = simd::NativeVec4;
  using S = simd::ScalarVec4;
  const double a[4] = {1.25, -3.5, 0.0, 1e-17};
  const double b[4] = {-2.0, 0.3, 7.75, 4.0};
  const double c[4] = {0.5, 0.25, -1.0, 2.0};

  double got[4], want[4];
  V::Store(got, V::Add(V::Load(a), V::Load(b)));
  S::Store(want, S::Add(S::Load(a), S::Load(b)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "Add lane " << i;

  V::Store(got, V::Mul(V::Load(a), V::Load(b)));
  S::Store(want, S::Mul(S::Load(a), S::Load(b)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], want[i]) << "Mul lane " << i;

  V::Store(got, V::MulAdd(V::Load(a), V::Load(b), V::Load(c)));
  S::Store(want, S::MulAdd(S::Load(a), S::Load(b), S::Load(c)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], want[i]) << "MulAdd lane " << i;
  }

  V::Store(got, V::Broadcast(3.14));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], 3.14);

  EXPECT_EQ(V::ReduceAdd(V::Load(a)), S::ReduceAdd(S::Load(a)));
  EXPECT_EQ(S::ReduceAdd(S::Load(a)), (a[0] + a[2]) + (a[1] + a[3]));
}

TEST(SimdTest, DotLanesFollowsTheDocumentedGrid) {
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 17u, 64u, 129u, 1000u}) {
    const std::vector<double> x = TestSignal(n, 0.0);
    const std::vector<double> y = TestSignal(n, 1.0);
    const double want = ReferenceDotGrid(x.data(), y.data(), n);
    const double scalar =
        simd::DotLanes<simd::ScalarVec4>(x.data(), y.data(), n);
    EXPECT_EQ(scalar, want) << "n=" << n;
    const double native =
        simd::DotLanes<simd::NativeVec4>(x.data(), y.data(), n);
    if (kBitwiseBackends) {
      EXPECT_EQ(native, scalar) << "n=" << n;
    } else {
      // Documented bound: <= 1 ULP of contraction slack per accumulated
      // term, n terms in total.
      EXPECT_LE(UlpDistance(native, scalar), static_cast<std::int64_t>(n) + 1)
          << "n=" << n;
    }
  }
}

TEST(SimdTest, AxpyAndMulLanesAreValueNeutral) {
  for (std::size_t n : {0u, 1u, 4u, 7u, 33u, 500u}) {
    const std::vector<double> x = TestSignal(n, 0.3);
    const std::vector<double> y0 = TestSignal(n, 0.9);

    std::vector<double> want = y0;
    for (std::size_t i = 0; i < n; ++i) {
      const double prod = -0.75 * x[i];  // unfused: product rounds first
      want[i] += prod;
    }
    std::vector<double> got = y0;
    simd::AxpyLanes<simd::NativeVec4>(-0.75, x.data(), got.data(), n);
    std::vector<double> got_scalar = y0;
    simd::AxpyLanes<simd::ScalarVec4>(-0.75, x.data(), got_scalar.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got_scalar[i], want[i]) << "axpy n=" << n << " i=" << i;
      if (kBitwiseBackends) {
        EXPECT_EQ(got[i], want[i]) << "axpy n=" << n << " i=" << i;
      } else {
        EXPECT_LE(UlpDistance(got[i], want[i]), 1) << "axpy n=" << n;
      }
    }

    std::vector<double> prod_got(n), prod_want(n);
    simd::MulLanes<simd::NativeVec4>(x.data(), y0.data(), prod_got.data(), n);
    for (std::size_t i = 0; i < n; ++i) prod_want[i] = x[i] * y0[i];
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(prod_got[i], prod_want[i]) << "mul n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace umvsc::la
