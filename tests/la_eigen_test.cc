#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/ops.h"
#include "la/sym_eigen.h"
#include "test_util.h"

namespace umvsc::la {
namespace {

// Test-local reference: the cyclic Jacobi eigensolver for symmetric
// matrices. Slower than the tridiagonal pipeline (O(n³) with a larger
// constant) but exceptionally accurate, and an implementation independent
// of SymmetricEigen, which is what makes it an oracle for it. Eigenvalues
// ascending, eigenvectors in matching columns.
StatusOr<SymEigenResult> JacobiEigen(const Matrix& a) {
  constexpr double kSymmetryTol = 1e-8;
  constexpr int kMaxSweeps = 64;
  if (!a.IsSquare()) {
    return Status::InvalidArgument("JacobiEigen requires a square matrix");
  }
  const double scale = std::max(1.0, a.MaxAbs());
  if (!a.IsSymmetric(kSymmetryTol * scale)) {
    return Status::InvalidArgument("JacobiEigen requires a symmetric matrix");
  }
  const std::size_t n = a.rows();
  Matrix m = a;
  m.Symmetrize();
  Matrix v = Matrix::Identity(n);

  auto off_diagonal_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) s += m(i, j) * m(i, j);
    }
    return std::sqrt(2.0 * s);
  };

  const double tol = 1e-14 * std::max(1.0, m.FrobeniusNorm());
  bool converged = n < 2;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= tol) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        // Rotation angle that zeroes m(p, q).
        const double theta = 0.5 * (aqq - app) / apq;
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply J(p, q, θ)ᵀ · M · J(p, q, θ).
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    converged = off_diagonal_norm() <= tol * static_cast<double>(n);
  }
  if (!converged) {
    return Status::NumericalError("Jacobi sweeps did not converge");
  }

  // Sort ascending.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return m(x, x) < m(y, y);
  });
  SymEigenResult out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = m(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

// Checks A·V = V·diag(λ) and VᵀV = I.
void ExpectValidEigenDecomposition(const Matrix& a, const SymEigenResult& r,
                                   double tol) {
  const std::size_t n = a.rows();
  ASSERT_EQ(r.eigenvalues.size(), n);
  ASSERT_EQ(r.eigenvectors.rows(), n);
  ASSERT_EQ(r.eigenvectors.cols(), n);
  EXPECT_LT(OrthonormalityError(r.eigenvectors), tol);
  Matrix av = MatMul(a, r.eigenvectors);
  Matrix vd = r.eigenvectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vd(i, j) *= r.eigenvalues[j];
  }
  EXPECT_TRUE(AlmostEqual(av, vd, tol * std::max(1.0, a.MaxAbs())));
  // Ascending order.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_LE(r.eigenvalues[i - 1], r.eigenvalues[i] + 1e-12);
  }
}

TEST(SymEigenTest, DiagonalMatrix) {
  Matrix a = Matrix::Diagonal(Vector{3.0, -1.0, 2.0});
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(r->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(r->eigenvalues[2], 3.0, 1e-12);
  ExpectValidEigenDecomposition(a, *r, 1e-10);
}

TEST(SymEigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r->eigenvalues[1], 3.0, 1e-12);
}

TEST(SymEigenTest, PrescribedSpectrumIsRecovered) {
  Vector evals{-4.0, -1.5, 0.0, 0.5, 2.0, 7.5};
  Matrix a = test::SymmetricWithSpectrum(evals, 31);
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_NEAR(r->eigenvalues[i], evals[i], 1e-9);
  }
  ExpectValidEigenDecomposition(a, *r, 1e-9);
}

TEST(SymEigenTest, RepeatedEigenvaluesHandled) {
  Vector evals{1.0, 1.0, 1.0, 5.0, 5.0};
  Matrix a = test::SymmetricWithSpectrum(evals, 32);
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_NEAR(r->eigenvalues[i], evals[i], 1e-9);
  }
  ExpectValidEigenDecomposition(a, *r, 1e-9);
}

TEST(SymEigenTest, OneByOneAndEmpty) {
  Matrix a{{4.0}};
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->eigenvalues[0], 4.0);

  StatusOr<SymEigenResult> e = SymmetricEigen(Matrix());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->eigenvalues.size(), 0u);
}

TEST(SymEigenTest, RejectsAsymmetricInput) {
  Matrix a{{1.0, 5.0}, {0.0, 1.0}};
  EXPECT_EQ(SymmetricEigen(a).status().code(), StatusCode::kInvalidArgument);
}

class SymEigenSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(SymEigenSizeTest, RandomSymmetricDecomposes) {
  const int n = GetParam();
  Matrix a = test::RandomSymmetric(n, static_cast<std::uint64_t>(n) * 7 + 1);
  StatusOr<SymEigenResult> r = SymmetricEigen(a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectValidEigenDecomposition(a, *r, 1e-8);
  // Trace is preserved by similarity.
  EXPECT_NEAR(r->eigenvalues.Sum(), a.Trace(),
              1e-9 * std::max(1.0, std::fabs(a.Trace())));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenSizeTest,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 33, 64, 100));

TEST(JacobiEigenTest, MatchesQlPipelineOnRandomMatrices) {
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    Matrix a = test::RandomSymmetric(12, seed);
    StatusOr<SymEigenResult> ql = SymmetricEigen(a);
    StatusOr<SymEigenResult> jc = JacobiEigen(a);
    ASSERT_TRUE(ql.ok());
    ASSERT_TRUE(jc.ok());
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(ql->eigenvalues[i], jc->eigenvalues[i], 1e-9)
          << "seed " << seed << " index " << i;
    }
  }
}

TEST(JacobiEigenTest, ValidDecomposition) {
  Matrix a = test::RandomSymmetric(20, 50);
  StatusOr<SymEigenResult> r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  ExpectValidEigenDecomposition(a, *r, 1e-9);
}

TEST(TridiagonalEigenTest, KnownLaplacianChain) {
  // Path-graph Laplacian tridiagonal: eigenvalues 2 − 2cos(kπ/n)… use the
  // free-end chain [2, −1; −1, 2 …] with known spectrum
  // λ_k = 2 − 2cos(kπ/(n+1)), k = 1…n.
  const std::size_t n = 8;
  Vector d(n, 2.0);
  Vector e(n - 1, -1.0);
  StatusOr<SymEigenResult> r = TridiagonalEigen(d, e);
  ASSERT_TRUE(r.ok());
  for (std::size_t k = 1; k <= n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * M_PI /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(r->eigenvalues[k - 1], expected, 1e-10);
  }
}

TEST(TridiagonalEigenTest, RejectsBadSubdiagonalLength) {
  EXPECT_EQ(TridiagonalEigen(Vector(4), Vector(4)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExtremeEigenpairsTest, SmallestAndLargestAgreeWithFull) {
  Matrix a = test::RandomSymmetric(15, 60);
  StatusOr<SymEigenResult> full = SymmetricEigen(a);
  StatusOr<SymEigenResult> lo = SmallestEigenpairs(a, 3);
  StatusOr<SymEigenResult> hi = LargestEigenpairs(a, 3);
  ASSERT_TRUE(full.ok() && lo.ok() && hi.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(lo->eigenvalues[i], full->eigenvalues[i]);
    EXPECT_DOUBLE_EQ(hi->eigenvalues[i], full->eigenvalues[14 - i]);
  }
  EXPECT_EQ(lo->eigenvectors.cols(), 3u);
  EXPECT_EQ(hi->eigenvectors.cols(), 3u);
  EXPECT_LT(OrthonormalityError(lo->eigenvectors), 1e-9);
}

TEST(ExtremeEigenpairsTest, RejectsOversizedK) {
  Matrix a = test::RandomSymmetric(4, 61);
  EXPECT_FALSE(SmallestEigenpairs(a, 5).ok());
  EXPECT_FALSE(LargestEigenpairs(a, 5).ok());
}

}  // namespace
}  // namespace umvsc::la
