// The packed GEMM kernel contract (src/la/gemm_kernel.h): C accumulates on
// the fixed kc grid — per element, serial ascending p within each kc block,
// blocks added in ascending order — independent of the row range, the
// register tile, edge handling, and the SIMD backend. The reference below
// implements that grid longhand with unfused mul/add, so on x86 every
// comparison is exact; adversarial shapes sweep all the edge-handling paths
// (dims that are not multiples of the 4x8 tile, 0- and 1-sized dims, and
// k past the kc=256 block edge). The packed-B entry must give the bits of
// the unpacked one on every shape and row range. Each shape also runs the
// simd::ScalarVec4 instantiations of both kernel templates — the code a
// -DUMVSC_DISABLE_SIMD build runs — against the native entries.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/parallel.h"
#include "gtest/gtest.h"
#include "la/gemm_kernel.h"
#include "la/gemm_kernel_impl.h"
#include "la/simd.h"

namespace umvsc::la::kernel {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kBitwiseBackends = true;
#else
constexpr bool kBitwiseBackends = false;
#endif

constexpr std::size_t kKcGrid = kKc;

std::vector<double> TestMatrix(std::size_t rows, std::size_t cols,
                               double phase) {
  std::vector<double> m(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m[i * cols + j] = std::sin(0.7 * static_cast<double>(i) +
                                 1.3 * static_cast<double>(j) + phase) +
                        0.01 * static_cast<double>(i + j);
    }
  }
  return m;
}

// The documented accumulation grid, written out longhand.
void ReferenceGemmAdd(std::size_t n, std::size_t k, const Operand& a,
                      const Operand& b, double* c, std::size_t c_stride,
                      std::size_t row_begin, std::size_t row_end) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t kk = 0; kk < k; kk += kKcGrid) {
        const std::size_t kcb = std::min(kKcGrid, k - kk);
        double partial = 0.0;
        for (std::size_t p = 0; p < kcb; ++p) {
          const double prod = a.At(i, kk + p) * b.At(kk + p, j);
          partial += prod;
        }
        c[i * c_stride + j] += partial;
      }
    }
  }
}

void ExpectClose(const std::vector<double>& got,
                 const std::vector<double>& want, std::size_t k,
                 const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (kBitwiseBackends) {
      EXPECT_EQ(got[i], want[i]) << label << " element " << i;
    } else {
      const double tol = 1e-15 * static_cast<double>(k + 1);
      EXPECT_NEAR(got[i], want[i], tol) << label << " element " << i;
    }
  }
}

void CheckShape(std::size_t m, std::size_t n, std::size_t k, bool a_trans,
                bool b_trans) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k
                                    << " aT=" << a_trans << " bT=" << b_trans);
  // Physical layouts: A is m x k (or k x m when read transposed), B is
  // k x n (or n x k).
  const std::vector<double> a_buf =
      a_trans ? TestMatrix(k, m, 0.0) : TestMatrix(m, k, 0.0);
  const std::vector<double> b_buf =
      b_trans ? TestMatrix(n, k, 1.0) : TestMatrix(k, n, 1.0);
  const Operand a{a_buf.data(), a_trans ? m : k, a_trans};
  const Operand b{b_buf.data(), b_trans ? k : n, b_trans};

  // Accumulate semantics: C starts non-zero and GemmAdd adds into it.
  const std::vector<double> c0 = TestMatrix(m, n == 0 ? 1 : n, 2.0);
  std::vector<double> want(m * n);
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = c0[i];
  ReferenceGemmAdd(n, k, a, b, want.data(), n, 0, m);

  std::vector<double> got = std::vector<double>(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) got[i] = c0[i];
  GemmAdd(n, k, a, b, got.data(), n, 0, m);
  ExpectClose(got, want, k, "native");

  std::vector<double> got_scalar(want.size());
  for (std::size_t i = 0; i < got_scalar.size(); ++i) got_scalar[i] = c0[i];
  detail::GemmAddImpl<simd::ScalarVec4>(n, k, a, b, got_scalar.data(), n, 0,
                                        m);
  // The scalar instantiation shares the exact grid: bitwise on x86.
  ExpectClose(got_scalar, want, k, "scalar");
  ExpectClose(got_scalar, got, k, "scalar vs native");
}

TEST(GemmKernelTest, AdversarialShapesMatchTheReferenceGrid) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 9, 17, 31, 33, 65};
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : {1ul, 3ul, 8ul, 33ul}) {
        CheckShape(m, n, k, false, false);
      }
    }
  }
}

TEST(GemmKernelTest, AllTransposeCombinationsMatch) {
  for (bool a_trans : {false, true}) {
    for (bool b_trans : {false, true}) {
      CheckShape(13, 21, 37, a_trans, b_trans);
      CheckShape(64, 8, 16, a_trans, b_trans);
    }
  }
}

TEST(GemmKernelTest, InnerDimPastTheKcBlockEdgeMatches) {
  CheckShape(9, 11, 256, false, false);
  CheckShape(9, 11, 257, false, false);
  CheckShape(9, 11, 300, false, true);
  CheckShape(5, 5, 513, true, false);
}

TEST(GemmKernelTest, DegenerateDimensionsAreNoOpsOrScalars) {
  CheckShape(1, 1, 1, false, false);
  CheckShape(1, 1, 1, true, true);
  CheckShape(0, 5, 3, false, false);   // empty row range: no-op
  CheckShape(5, 0, 3, false, false);   // n = 0: no columns to write
  CheckShape(5, 3, 0, false, false);   // k = 0: C unchanged
  CheckShape(1, 9, 4, false, false);
  CheckShape(9, 1, 4, false, false);
}

TEST(GemmKernelTest, RowRangeRestrictsWritesAndPartitionsAgree) {
  const std::size_t m = 23, n = 17, k = 29;
  const std::vector<double> a_buf = TestMatrix(m, k, 0.0);
  const std::vector<double> b_buf = TestMatrix(k, n, 1.0);
  const Operand a{a_buf.data(), k, false};
  const Operand b{b_buf.data(), n, false};

  std::vector<double> whole(m * n, 0.0);
  GemmAdd(n, k, a, b, whole.data(), n, 0, m);

  // A restricted range must only touch its rows...
  std::vector<double> part(m * n, 0.0);
  GemmAdd(n, k, a, b, part.data(), n, 7, 15);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i >= 7 && i < 15) {
        EXPECT_EQ(part[i * n + j], whole[i * n + j]) << i << "," << j;
      } else {
        EXPECT_EQ(part[i * n + j], 0.0) << i << "," << j;
      }
    }
  }

  // ...and any partition of [0, m) must reproduce the single-span bits —
  // the property the row-parallel callers rely on.
  const std::size_t cuts[] = {0, 1, 4, 11, 12, 20, 23};
  std::vector<double> pieced(m * n, 0.0);
  for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
    GemmAdd(n, k, a, b, pieced.data(), n, cuts[s], cuts[s + 1]);
  }
  EXPECT_EQ(0,
            std::memcmp(pieced.data(), whole.data(), m * n * sizeof(double)));
}

TEST(GemmKernelTest, StridedOutputLeavesGapsUntouched) {
  const std::size_t m = 6, n = 5, k = 7, c_stride = 9;
  const std::vector<double> a_buf = TestMatrix(m, k, 0.0);
  const std::vector<double> b_buf = TestMatrix(k, n, 1.0);
  const Operand a{a_buf.data(), k, false};
  const Operand b{b_buf.data(), n, false};

  std::vector<double> c(m * c_stride, -4.0);
  std::vector<double> want = c;
  ReferenceGemmAdd(n, k, a, b, want.data(), c_stride, 0, m);
  GemmAdd(n, k, a, b, c.data(), c_stride, 0, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < c_stride; ++j) {
      if (j < n) {
        if (kBitwiseBackends) {
          EXPECT_EQ(c[i * c_stride + j], want[i * c_stride + j]);
        } else {
          EXPECT_NEAR(c[i * c_stride + j], want[i * c_stride + j], 1e-13);
        }
      } else {
        EXPECT_EQ(c[i * c_stride + j], -4.0) << "gap " << i << "," << j;
      }
    }
  }
}

// The packed-B entry against the unpacked one: the whole range, every
// single-row range (the one-row register kernel, also on the unpacked
// entry) and an uneven row partition must all reproduce the unpacked
// whole-range bits — and the reference grid. The packed entry's scalar
// instantiation must agree with the native one.
void CheckPackedShape(std::size_t m, std::size_t n, std::size_t k,
                      bool a_trans, bool b_trans) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " n=" << n << " k=" << k << " aT=" << a_trans
               << " bT=" << b_trans);
  const std::vector<double> a_buf =
      a_trans ? TestMatrix(k, m, 0.0) : TestMatrix(m, k, 0.0);
  const std::vector<double> b_buf =
      b_trans ? TestMatrix(n, k, 1.0) : TestMatrix(k, n, 1.0);
  const Operand a{a_buf.data(), a_trans ? m : k, a_trans};
  const Operand b{b_buf.data(), b_trans ? k : n, b_trans};
  const std::vector<double> c0 = TestMatrix(m, n, 2.0);

  std::vector<double> want = c0;
  GemmAdd(n, k, a, b, want.data(), n, 0, m);
  std::vector<double> reference = c0;
  ReferenceGemmAdd(n, k, a, b, reference.data(), n, 0, m);
  ExpectClose(want, reference, k, "unpacked vs reference");

  const PackedB packed = PackB(n, k, b);
  ASSERT_EQ(packed.n, n);
  ASSERT_EQ(packed.k, k);
  ASSERT_EQ(packed.strips.size(), (n + 7) / 8 * 8 * k);

  auto expect_bitwise = [&](const std::vector<double>& got, const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Same backend, same grid: bitwise on every target.
      EXPECT_EQ(got[i], want[i]) << what << " element " << i;
    }
  };

  std::vector<double> whole = c0;
  GemmAdd(a, packed, whole.data(), n, 0, m);
  expect_bitwise(whole, "packed whole range");

  std::vector<double> rows_packed = c0;
  std::vector<double> rows_unpacked = c0;
  for (std::size_t i = 0; i < m; ++i) {
    GemmAdd(a, packed, rows_packed.data(), n, i, i + 1);
    GemmAdd(n, k, a, b, rows_unpacked.data(), n, i, i + 1);
  }
  expect_bitwise(rows_packed, "packed single rows");
  expect_bitwise(rows_unpacked, "unpacked single rows");

  // Spans of 1, 3, 2, 7, 4, 1, 9 rows, repeating: one-row spans between
  // tall ones, edges off the 4-row tile grid.
  const std::size_t spans[] = {1, 3, 2, 7, 4, 1, 9};
  std::vector<double> pieced = c0;
  for (std::size_t lo = 0, t = 0; lo < m; ++t) {
    const std::size_t hi = std::min(m, lo + spans[t % std::size(spans)]);
    GemmAdd(a, packed, pieced.data(), n, lo, hi);
    lo = hi;
  }
  expect_bitwise(pieced, "packed partition");

  std::vector<double> scalar = c0;
  detail::GemmAddPackedImpl<simd::ScalarVec4>(a, packed, scalar.data(), n, 0,
                                              m);
  ExpectClose(scalar, want, k, "packed scalar vs native");
}

TEST(GemmKernelTest, PackedEntryMatchesGemmAdd) {
  const std::size_t ms[] = {1, 2, 3, 5, 9, 17, 33, 65};
  // n below, at and past the 8-wide strip, odd strip counts included;
  // n = 0 and k = 0 are no-ops.
  const std::size_t ns[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33};
  const std::size_t ks[] = {0, 1, 3, kKc - 1, kKc, kKc + 1, 3 * kKc + 17};
  for (std::size_t m : ms) {
    for (std::size_t n : ns) {
      for (std::size_t k : ks) {
        CheckPackedShape(m, n, k, false, false);
        CheckPackedShape(m, n, k, false, true);
      }
    }
  }
  for (bool a_trans : {false, true}) {
    for (bool b_trans : {false, true}) {
      CheckPackedShape(13, 21, 37, a_trans, b_trans);
      CheckPackedShape(1, 21, kKc + 5, a_trans, b_trans);
    }
  }
}

// Pool threads share one PackedB (read-only) and each runs the block loop
// with its own thread_local A-panel scratch: any thread count and row
// grain must reproduce the serial bits.
TEST(GemmKernelTest, PoolThreadsShareOnePackedPanel) {
  const std::size_t m = 203, n = 45, k = kKc + 70;
  const std::vector<double> a_buf = TestMatrix(m, k, 0.25);
  const std::vector<double> b_buf = TestMatrix(n, k, 0.75);
  const Operand a{a_buf.data(), k, false};
  const PackedB packed = PackB(n, k, {b_buf.data(), k, true});

  std::vector<double> serial(m * n, 0.0);
  GemmAdd(a, packed, serial.data(), n, 0, m);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ScopedNumThreads scope(threads);
    for (std::size_t grain :
         {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      std::vector<double> pooled(m * n, 0.0);
      ParallelFor(0, m, grain, [&](std::size_t lo, std::size_t hi) {
        GemmAdd(a, packed, pooled.data(), n, lo, hi);
      });
      EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                               serial.size() * sizeof(double)))
          << threads << " threads, grain " << grain;
    }
  }
}

}  // namespace
}  // namespace umvsc::la::kernel
