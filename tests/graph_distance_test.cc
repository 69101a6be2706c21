#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "la/ops.h"

namespace umvsc::graph {
namespace {

TEST(DistanceTest, KnownPairs) {
  la::Matrix x{{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}};
  la::Matrix d2 = PairwiseSquaredDistances(x);
  EXPECT_DOUBLE_EQ(d2(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(d2(0, 2), 1.0);
  EXPECT_NEAR(d2(1, 2), 18.0, 1e-12);
  la::Matrix d = PairwiseDistances(x);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
}

// Past the kc block edge (256) of the GEMM's accumulation grid a row's
// blocked self-dot and its one-chain norm differ in the last bits; the
// diagonal is still exactly zero, and d2(i, j) and d2(j, i) share the
// products and their order, so the matrix is exactly symmetric.
TEST(DistanceTest, DiagonalZeroAndSymmetric) {
  Rng rng(1);
  for (std::size_t d : {std::size_t{6}, std::size_t{300}, std::size_t{1302}}) {
    la::Matrix x = la::Matrix::RandomGaussian(40, d, rng);
    la::Matrix d2 = PairwiseSquaredDistances(x);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(d2(i, i), 0.0) << "d " << d << " row " << i;
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(d2(i, j), d2(j, i)) << "d " << d << " (" << i << ", " << j
                                      << ")";
      }
    }
  }
}

TEST(DistanceTest, MatchesNaiveComputation) {
  Rng rng(2);
  la::Matrix x = la::Matrix::RandomGaussian(15, 4, rng);
  la::Matrix d2 = PairwiseSquaredDistances(x);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      double ref = 0.0;
      for (std::size_t p = 0; p < 4; ++p) {
        const double diff = x(i, p) - x(j, p);
        ref += diff * diff;
      }
      EXPECT_NEAR(d2(i, j), ref, 1e-10);
    }
  }
}

TEST(DistanceTest, NonNegativeDespiteRounding) {
  // Identical rows stress the Gram-expansion cancellation.
  la::Matrix x(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = 1e8;
    x(i, 1) = -1e8;
    x(i, 2) = 0.5;
  }
  la::Matrix d2 = PairwiseSquaredDistances(x);
  for (std::size_t i = 0; i < d2.size(); ++i) EXPECT_GE(d2.data()[i], 0.0);
}

TEST(GaussianKernelTest, ValuesAndDiagonal) {
  la::Matrix d2{{0.0, 4.0}, {4.0, 0.0}};
  StatusOr<la::Matrix> w = GaussianKernel(d2, 1.0);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ((*w)(0, 0), 0.0);  // no self loops
  EXPECT_NEAR((*w)(0, 1), std::exp(-2.0), 1e-12);
  EXPECT_TRUE(w->IsSymmetric(1e-14));
}

TEST(GaussianKernelTest, RejectsBadInputs) {
  la::Matrix d2(2, 3);
  EXPECT_FALSE(GaussianKernel(d2, 1.0).ok());
  la::Matrix sq(2, 2);
  EXPECT_FALSE(GaussianKernel(sq, 0.0).ok());
  EXPECT_FALSE(GaussianKernel(sq, -1.0).ok());
}

TEST(SelfTuningKernelTest, ScalesAdaptToDensity) {
  // Two clusters of very different scales: the self-tuning kernel should
  // give strong in-cluster affinity for BOTH, while a single global sigma
  // fit to the tight cluster starves the loose one.
  Rng rng(3);
  la::Matrix x(20, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.Gaussian(0.0, 0.01);
    x(i, 1) = rng.Gaussian(0.0, 0.01);
    x(10 + i, 0) = rng.Gaussian(100.0, 5.0);
    x(10 + i, 1) = rng.Gaussian(100.0, 5.0);
  }
  la::Matrix d2 = PairwiseSquaredDistances(x);
  StatusOr<la::Matrix> w = SelfTuningKernel(d2, 3);
  ASSERT_TRUE(w.ok());
  double tight_min = 1.0, loose_min = 1.0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i == j) continue;
      tight_min = std::min(tight_min, (*w)(i, j));
      loose_min = std::min(loose_min, (*w)(10 + i, 10 + j));
    }
  }
  EXPECT_GT(tight_min, 1e-4);
  EXPECT_GT(loose_min, 1e-4);
  // Cross-cluster affinity is negligible.
  EXPECT_LT((*w)(0, 15), 1e-8);
}

TEST(SelfTuningKernelTest, RejectsBadK) {
  la::Matrix d2(5, 5);
  EXPECT_FALSE(SelfTuningKernel(d2, 0).ok());
  EXPECT_FALSE(SelfTuningKernel(d2, 5).ok());
}

TEST(MedianSigmaTest, MedianOfKnownDistances) {
  // Points at 0, 1, 3 on a line: pairwise distances 1, 2, 3 → median 2.
  la::Matrix x{{0.0}, {1.0}, {3.0}};
  la::Matrix d2 = PairwiseSquaredDistances(x);
  StatusOr<double> sigma = MedianHeuristicSigma(d2);
  ASSERT_TRUE(sigma.ok());
  EXPECT_DOUBLE_EQ(*sigma, 2.0);
}

TEST(MedianSigmaTest, AllZeroFails) {
  la::Matrix d2(3, 3);
  EXPECT_FALSE(MedianHeuristicSigma(d2).ok());
}

}  // namespace
}  // namespace umvsc::graph
