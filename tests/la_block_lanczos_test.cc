#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/sym_eigen.h"
#include "test_util.h"

namespace umvsc::la {
namespace {

// Unnormalized Laplacian of a disjoint union of `c` cliques of size `s` —
// the bottom eigenvalue 0 has multiplicity exactly c, the classic
// multiplicity trap for single-vector Krylov solvers.
CsrMatrix BlockCliqueLaplacian(std::size_t c, std::size_t s) {
  std::vector<Triplet> t;
  for (std::size_t b = 0; b < c; ++b) {
    const std::size_t base = b * s;
    for (std::size_t i = 0; i < s; ++i) {
      t.push_back({base + i, base + i, static_cast<double>(s - 1)});
      for (std::size_t j = 0; j < s; ++j) {
        if (i != j) t.push_back({base + i, base + j, -1.0});
      }
    }
  }
  return CsrMatrix::FromTriplets(c * s, c * s, std::move(t));
}

TEST(BlockLanczosTest, LargestMatchesDenseReference) {
  Matrix dense = test::RandomSymmetric(40, 190);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  StatusOr<SymEigenResult> full = SymmetricEigen(dense);
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(sparse, 4);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], full->eigenvalues[39 - j], 1e-7);
  }
  EXPECT_LT(OrthonormalityError(blk->eigenvectors), 1e-8);
  for (int j = 0; j < 4; ++j) {
    Vector v = blk->eigenvectors.Col(j);
    Vector av = sparse.Multiply(v);
    av.Axpy(-blk->eigenvalues[j], v);
    EXPECT_LT(av.Norm2(), 1e-6 * std::max(1.0, std::fabs(blk->eigenvalues[j])));
  }
}

TEST(BlockLanczosTest, SmallestMatchesDenseReference) {
  Matrix dense = test::RandomSpd(35, 192);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  StatusOr<SymEigenResult> full = SymmetricEigen(dense);
  ASSERT_TRUE(full.ok());
  const double bound = full->eigenvalues[34] * 1.01;
  StatusOr<SymEigenResult> blk = BlockLanczosSmallest(sparse, 3, bound);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], full->eigenvalues[j], 1e-6);
  }
}

TEST(BlockLanczosTest, AgreesWithSingleVectorSolver) {
  Matrix dense = test::RandomSymmetric(50, 193);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  StatusOr<SymEigenResult> single = LanczosLargest(sparse, 5);
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(sparse, 5);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (int j = 0; j < 5; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], single->eigenvalues[j], 1e-7);
  }
}

TEST(BlockLanczosTest, BlockSizeOneIsTheSingleVectorSpecialization) {
  // b = 1 degenerates to one Krylov direction per iteration — the same
  // iteration the single-vector solver runs. Values must agree to solver
  // tolerance (the reorthogonalization arithmetic differs in rounding).
  Matrix dense = test::RandomSymmetric(45, 194);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  LanczosOptions options;
  options.block_size = 1;
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(sparse, 3, options);
  StatusOr<SymEigenResult> single = LanczosLargest(sparse, 3);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  ASSERT_TRUE(single.ok());
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], single->eigenvalues[j], 1e-7);
  }
}

TEST(BlockLanczosTest, RepeatedEigenvaluesCapturedInOnePanel) {
  // 5-fold degenerate bottom eigenvalue; a b = 5 panel sees every copy at
  // once where a single Krylov sequence needs one breakdown restart per
  // missed copy.
  const std::size_t c = 5, s = 8;
  CsrMatrix lap = BlockCliqueLaplacian(c, s);
  StatusOr<SymEigenResult> blk =
      BlockLanczosSmallest(lap, c, static_cast<double>(s) + 1.0);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (std::size_t j = 0; j < c; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], 0.0, 1e-7) << "j=" << j;
  }
  // The full c-dimensional null space must be captured: Lap·V ≈ 0.
  Matrix lv = lap.Multiply(blk->eigenvectors);
  EXPECT_LT(lv.MaxAbs(), 1e-7);
  EXPECT_LT(OrthonormalityError(blk->eigenvectors), 1e-8);
}

TEST(BlockLanczosTest, ClusteredEigenvaluesResolved) {
  // Tight cluster at the top: 10 ± 1e-4 spread over 4 eigenvalues, with the
  // rest well below. The block width covers the whole cluster.
  const std::size_t n = 80, k = 4;
  Vector evals(n);
  for (std::size_t i = 0; i < n; ++i) {
    evals[i] = i < n - k ? 0.05 * static_cast<double>(i)
                         : 10.0 + 1e-4 * static_cast<double>(i - (n - k));
  }
  Matrix dense = test::SymmetricWithSpectrum(evals, 195);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(sparse, k);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j],
                10.0 + 1e-4 * static_cast<double>(k - 1 - j), 1e-7);
  }
}

TEST(BlockLanczosTest, WarmStartedPanelUsesFewerPanelMatvecs) {
  const std::size_t n = 150;
  const std::size_t k = 5;
  Vector evals(n);
  for (std::size_t i = 0; i < n; ++i) {
    evals[i] = i < n - k ? 0.01 * static_cast<double>(i)
                         : 10.0 + static_cast<double>(i - (n - k));
  }
  Matrix dense = test::SymmetricWithSpectrum(evals, 196);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);

  LanczosOptions cold;
  std::size_t cold_matvecs = 0;
  cold.matvec_count = &cold_matvecs;
  StatusOr<SymEigenResult> first = BlockLanczosLargest(sparse, k, cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  LanczosOptions warm;
  std::size_t warm_matvecs = 0;
  warm.matvec_count = &warm_matvecs;
  warm.warm_start = &first->eigenvectors;
  StatusOr<SymEigenResult> second = BlockLanczosLargest(sparse, k, warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_LT(warm_matvecs, cold_matvecs);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(second->eigenvalues[j], first->eigenvalues[j], 1e-7);
  }
}

TEST(BlockLanczosTest, MatvecCountIsPanelApplicationsTimesWidth) {
  CsrMatrix lap = BlockCliqueLaplacian(3, 10);
  LanczosOptions options;
  std::size_t matvecs = 0;
  options.matvec_count = &matvecs;
  StatusOr<SymEigenResult> res =
      BlockLanczosSmallest(lap, 3, 11.0, options);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Every panel has width b = k = 3 here (n = 30 leaves room), so the
  // counter must be a positive multiple of 3.
  EXPECT_GT(matvecs, 0u);
  EXPECT_EQ(matvecs % 3, 0u);
}

TEST(BlockLanczosTest, MatrixFreeBlockOperatorWorks) {
  const std::size_t n = 25;
  SymmetricBlockOperator op = [n](const Matrix& x, Matrix& y) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        y(i, j) += static_cast<double>(i + 1) * x(i, j);
      }
    }
  };
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(op, n, 2);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  EXPECT_NEAR(blk->eigenvalues[0], static_cast<double>(n), 1e-8);
  EXPECT_NEAR(blk->eigenvalues[1], static_cast<double>(n - 1), 1e-8);
}

TEST(BlockLanczosTest, MismatchedWarmStartIsIgnored) {
  CsrMatrix lap = BlockCliqueLaplacian(4, 8);
  Matrix wrong_rows(7, 2);  // not 32 rows: must be ignored, not crash
  LanczosOptions options;
  options.warm_start = &wrong_rows;
  StatusOr<SymEigenResult> res = BlockLanczosSmallest(lap, 4, 9.0, options);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  StatusOr<SymEigenResult> plain = BlockLanczosSmallest(lap, 4, 9.0);
  ASSERT_TRUE(plain.ok());
  // Identical to the cold solve bit for bit — same seed, same random panel.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(res->eigenvalues[j], plain->eigenvalues[j]);
  }
}

TEST(BlockLanczosTest, KEqualsNReturnsFullSpectrum) {
  Matrix dense = test::RandomSymmetric(12, 197);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  StatusOr<SymEigenResult> full = SymmetricEigen(dense);
  StatusOr<SymEigenResult> blk = BlockLanczosLargest(sparse, 12);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  for (int j = 0; j < 12; ++j) {
    EXPECT_NEAR(blk->eigenvalues[j], full->eigenvalues[11 - j], 1e-7);
  }
}

TEST(BlockLanczosTest, InvalidArguments) {
  CsrMatrix lap = BlockCliqueLaplacian(2, 5);
  EXPECT_FALSE(BlockLanczosLargest(lap, 0).ok());
  EXPECT_FALSE(BlockLanczosLargest(lap, 11).ok());
  EXPECT_FALSE(BlockLanczosSmallest(lap, 2, -1.0).ok());
  CsrMatrix rect = CsrMatrix::FromTriplets(2, 3, {{0, 0, 1.0}});
  EXPECT_FALSE(BlockLanczosLargest(rect, 1).ok());
  LanczosOptions tiny;
  tiny.max_subspace = 2;
  EXPECT_FALSE(BlockLanczosLargest(lap, 3, tiny).ok());
}

// A sparse matrix with irregular row lengths (some rows empty) so the
// skinny-SpMM kernels see the row shapes the cache-blocked generic kernel
// sees, not just a uniform-degree graph.
CsrMatrix IrregularSparse(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;  // leave some rows empty
    const std::size_t deg = 1 + rng.UniformInt(12);
    for (std::size_t e = 0; e < deg; ++e) {
      t.push_back({i, rng.UniformInt(n), rng.Uniform(-1.0, 1.0)});
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(t));
}

// The width-specialized skinny SpMM must be bitwise identical to the
// generic cache-blocked kernel it replaces at b <= 12, at every thread
// count — the eigensolver's determinism contract leans on it. The
// -DUMVSC_DISABLE_SIMD build runs this test on the scalar backend.
TEST(SkinnySpmmTest, BitwiseMatchesGenericKernelAcrossThreadCounts) {
  const std::size_t n = 257;  // not a multiple of the row grain
  CsrMatrix a = IrregularSparse(n, 91);
  for (const std::size_t b : {2, 4, 8}) {
    Rng rng(100 + b);
    Matrix x = Matrix::RandomGaussian(n, b, rng);
    Matrix reference(n, b);
    {
      ScopedNumThreads single_thread(1);
      reference.Fill(0.5);
      internal::SpmmGeneric(a, x, reference, 1.25);
    }
    for (const std::size_t threads : {1, 2, 8}) {
      ScopedNumThreads scope(threads);
      Matrix generic(n, b);
      generic.Fill(0.5);
      internal::SpmmGeneric(a, x, generic, 1.25);
      Matrix skinny(n, b);
      skinny.Fill(0.5);
      a.MultiplyInto(x, skinny, 1.25);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference.data()[i], generic.data()[i])
            << "generic kernel drifted at b=" << b << " threads=" << threads;
        ASSERT_EQ(reference.data()[i], skinny.data()[i])
            << "skinny kernel differs at b=" << b << " threads=" << threads;
      }
    }
  }
}

// The SpMM panel contract: equal to b independent per-column SpMVs, bit
// for bit, at every skinny width (including the scalar remainder widths).
TEST(SkinnySpmmTest, BitwiseMatchesPerColumnSpmv) {
  const std::size_t n = 123;
  CsrMatrix a = IrregularSparse(n, 17);
  for (std::size_t b = 1; b <= 13; ++b) {  // 13 exercises the generic path
    Rng rng(200 + b);
    Matrix x = Matrix::RandomGaussian(n, b, rng);
    Matrix y(n, b);
    a.MultiplyInto(x, y, 0.75);
    for (std::size_t j = 0; j < b; ++j) {
      Vector xcol(n), ycol(n);
      for (std::size_t i = 0; i < n; ++i) xcol[i] = x(i, j);
      a.MultiplyInto(xcol, ycol, 0.75);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ycol[i], y(i, j)) << "column " << j << " width " << b;
      }
    }
  }
}

}  // namespace
}  // namespace umvsc::la
