#include "cluster/rotation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "la/ops.h"
#include "la/qr.h"
#include "la/svd.h"
#include "test_util.h"

namespace umvsc::cluster {
namespace {

// The serial rotation search as it stood before the restarts moved onto the
// pool and the sweep onto one reused workspace: a fresh F·R, indicator,
// scaled indicator and residual per sweep, restarts one after another. The
// library must match it bit for bit.
namespace reference {

std::vector<std::size_t> IndicatorToLabels(const la::Matrix& y) {
  std::vector<std::size_t> labels(y.rows(), 0);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < y.cols(); ++j) {
      if (y(i, j) > best) {
        best = y(i, j);
        labels[i] = j;
      }
    }
  }
  return labels;
}

la::Matrix YuShiInitialRotation(const la::Matrix& f, Rng& rng) {
  const std::size_t n = f.rows(), c = f.cols();
  la::Matrix r(c, c);
  std::size_t pick = static_cast<std::size_t>(rng.UniformInt(n));
  r.SetCol(0, f.Row(pick));
  la::Vector accum(n);
  for (std::size_t j = 1; j < c; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t p = 0; p < c; ++p) dot += f(i, p) * r(p, j - 1);
      accum[i] += std::fabs(dot);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (accum[i] < accum[best]) best = i;
    }
    r.SetCol(j, f.Row(best));
  }
  return la::Orthonormalize(r);
}

struct SingleRunResult {
  RotationResult result;
  Status status = Status::OK();
};

SingleRunResult RunOnce(const la::Matrix& f, const RotationOptions& options,
                        la::Matrix r) {
  const std::size_t c = f.cols();
  SingleRunResult out;
  double prev_obj = std::numeric_limits<double>::infinity();
  la::Matrix y;
  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    la::Matrix fr = la::MatMul(f, r);
    std::vector<std::size_t> labels = IndicatorToLabels(fr);
    y = LabelsToIndicator(labels, c);
    la::Matrix y_hat = options.scale_indicator ? ScaledIndicator(y) : y;
    const double obj = la::Add(y_hat, fr, -1.0).FrobeniusNorm();
    const double obj2 = obj * obj;
    StatusOr<la::Matrix> next_r = la::ProcrustesRotation(la::MatTMul(f, y_hat));
    if (!next_r.ok()) {
      out.status = next_r.status();
      return out;
    }
    r = std::move(*next_r);
    if (iter > 0 &&
        prev_obj - obj2 <= options.tolerance * std::max(prev_obj, 1e-300)) {
      prev_obj = std::min(prev_obj, obj2);
      ++iter;
      break;
    }
    prev_obj = obj2;
  }
  out.result.labels = IndicatorToLabels(y);
  out.result.indicator = std::move(y);
  out.result.rotation = std::move(r);
  out.result.objective = prev_obj;
  out.result.iterations = iter;
  return out;
}

StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options) {
  const std::size_t c = f.cols();
  Rng root(options.seed);
  RotationResult best;
  best.objective = std::numeric_limits<double>::infinity();
  Status last_error = Status::OK();
  bool any_ok = false;
  for (std::size_t attempt = 0; attempt < options.restarts; ++attempt) {
    Rng rng = root.Split();
    la::Matrix r0 =
        (attempt < (options.restarts + 1) / 2)
            ? YuShiInitialRotation(f, rng)
            : la::Orthonormalize(la::Matrix::RandomGaussian(c, c, rng));
    SingleRunResult run = RunOnce(f, options, std::move(r0));
    if (!run.status.ok()) {
      last_error = run.status;
      continue;
    }
    any_ok = true;
    if (run.result.objective < best.objective) best = std::move(run.result);
  }
  if (!any_ok) return last_error;
  return best;
}

}  // namespace reference

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// An orthonormal n × c embedding of c noisy planted clusters of unequal
// size — the shape a spectral embedding has, so searches converge in a few
// sweeps and different restarts land on different local optima. The noise
// shrinks at c = 40, where it would otherwise cost dozens of sweeps.
la::Matrix ClusteredEmbedding(std::size_t n, std::size_t c,
                              std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix f = la::Matrix::RandomGaussian(n, c, rng);
  f.Scale(c >= 40 ? 0.1 : 0.35);
  for (std::size_t i = 0; i < n; ++i) f(i, (i * i + i / 3) % c) += 1.0;
  return la::MatMul(la::Orthonormalize(f), test::RandomOrthonormal(c, c, seed + 1));
}

// Every fourth row of F is zero, so its F·R row is all zeros and ties in
// every column: the first-max rule must send it to cluster 0.
la::Matrix TiedEmbedding(std::size_t n, std::size_t c, std::uint64_t seed) {
  la::Matrix f = ClusteredEmbedding(n, c, seed);
  for (std::size_t i = 3; i < n; i += 4) {
    for (std::size_t j = 0; j < c; ++j) f(i, j) = 0.0;
  }
  return f;
}

void ExpectSameRun(const StatusOr<RotationResult>& want,
                   const StatusOr<RotationResult>& got,
                   const std::string& where) {
  ASSERT_EQ(want.ok(), got.ok()) << where;
  if (!want.ok()) return;
  EXPECT_EQ(want->labels, got->labels) << where;
  EXPECT_TRUE(BitwiseEqual(want->indicator, got->indicator)) << where;
  EXPECT_TRUE(BitwiseEqual(want->rotation, got->rotation)) << where;
  EXPECT_TRUE(BitwiseEqual(want->objective, got->objective))
      << where << ": " << want->objective << " vs " << got->objective;
  EXPECT_EQ(want->iterations, got->iterations) << where;
}

// Runs the library search on `f` at 1, 2 and 8 threads and under a
// one-thread ParallelContext, for each restart count and both indicator
// conventions, against the serial reference.
void ExpectMatchesReference(const la::Matrix& f, std::uint64_t seed,
                            const std::string& name,
                            std::initializer_list<std::size_t> restart_counts =
                                {1, 5, 8}) {
  for (const bool scale : {true, false}) {
    for (const std::size_t restarts : restart_counts) {
      RotationOptions options;
      options.seed = seed;
      options.restarts = restarts;
      options.scale_indicator = scale;
      const StatusOr<RotationResult> want =
          reference::DiscretizeEmbedding(f, options);
      const std::string where = name + " scale=" + std::to_string(scale) +
                                " restarts=" + std::to_string(restarts);
      for (const std::size_t threads : {1, 2, 8}) {
        ScopedNumThreads scope(threads);
        ExpectSameRun(want, DiscretizeEmbedding(f, options),
                      where + " threads=" + std::to_string(threads));
      }
      ScopedParallelContext context(ParallelContext{1});
      ExpectSameRun(want, DiscretizeEmbedding(f, options),
                    where + " context=1");
    }
  }
}

TEST(DiscretizeReferenceTest, SmallEmbeddingsMatchSerialSearchBitwise) {
  for (const std::size_t n : {40, 997}) {
    for (const std::size_t c : {2, 5, 40}) {
      ExpectMatchesReference(ClusteredEmbedding(n, c, 100 + n + c), 7 + c,
                             "n=" + std::to_string(n) +
                                 " c=" + std::to_string(c));
    }
  }
}

// At c = 40 only the pool-filling restart count runs: the serial reference
// and the one-thread runs would otherwise take most of a minute.
TEST(DiscretizeReferenceTest, LargeEmbeddingsMatchSerialSearchBitwise) {
  const std::size_t n = 20000;
  for (const std::size_t c : {2, 5}) {
    ExpectMatchesReference(ClusteredEmbedding(n, c, 200 + c), 9 + c,
                           "n=20000 c=" + std::to_string(c));
  }
  ExpectMatchesReference(ClusteredEmbedding(n, 40, 240), 49, "n=20000 c=40",
                         {8});
}

TEST(DiscretizeReferenceTest, TiedRowsTakeTheFirstMaximum) {
  for (const std::size_t c : {2, 5}) {
    const la::Matrix f = TiedEmbedding(997, c, 300 + c);
    RotationOptions options;
    options.seed = 5;
    options.restarts = 8;
    StatusOr<RotationResult> got = DiscretizeEmbedding(f, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (std::size_t i = 3; i < f.rows(); i += 4) {
      EXPECT_EQ(got->labels[i], 0u) << "row " << i;
    }
    ExpectMatchesReference(f, 5, "tied c=" + std::to_string(c));
  }
}

TEST(IndicatorTest, RoundTripLabelsIndicator) {
  std::vector<std::size_t> labels{0, 2, 1, 1, 0};
  la::Matrix y = LabelsToIndicator(labels, 3);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  for (std::size_t i = 0; i < 5; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += y(i, j);
    EXPECT_DOUBLE_EQ(row_sum, 1.0);
    EXPECT_DOUBLE_EQ(y(i, labels[i]), 1.0);
  }
  EXPECT_EQ(reference::IndicatorToLabels(y), labels);
}

TEST(IndicatorTest, ScaledIndicatorHasUnitColumns) {
  std::vector<std::size_t> labels{0, 0, 0, 0, 1};
  la::Matrix y = LabelsToIndicator(labels, 2);
  la::Matrix y_hat = ScaledIndicator(y);
  // Column norms are 1 regardless of cluster size.
  for (std::size_t j = 0; j < 2; ++j) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < 5; ++i) norm2 += y_hat(i, j) * y_hat(i, j);
    EXPECT_NEAR(norm2, 1.0, 1e-12);
  }
  EXPECT_NEAR(y_hat(0, 0), 0.5, 1e-12);  // 1/sqrt(4)
  EXPECT_NEAR(y_hat(4, 1), 1.0, 1e-12);
}

TEST(IndicatorTest, ScaledIndicatorEmptyColumnStaysZero) {
  la::Matrix y(3, 2);
  y(0, 0) = 1.0;
  y(1, 0) = 1.0;
  y(2, 0) = 1.0;  // column 1 empty
  la::Matrix y_hat = ScaledIndicator(y);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y_hat(i, 1), 0.0);
}

// Builds an embedding that IS a rotated scaled indicator: discretization
// must recover the planted clusters exactly.
TEST(DiscretizeTest, RecoversPlantedRotatedIndicator) {
  const std::size_t n = 60, c = 4;
  Rng rng(40);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::size_t>(rng.UniformInt(c));
  }
  // Guarantee every cluster is non-empty.
  for (std::size_t j = 0; j < c; ++j) labels[j] = j;
  la::Matrix y_hat = ScaledIndicator(LabelsToIndicator(labels, c));
  la::Matrix rot = test::RandomOrthonormal(c, c, 41);
  la::Matrix f = la::MatMulT(y_hat, rot);  // F = Ŷ·Rᵀ, so F·R = Ŷ

  RotationOptions options;
  options.seed = 42;
  StatusOr<RotationResult> result = DiscretizeEmbedding(f, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<double> acc = eval::ClusteringAccuracy(result->labels, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 1.0);
  EXPECT_LT(la::OrthonormalityError(result->rotation), 1e-9);
}

TEST(DiscretizeTest, IndicatorRowsAreOneHot) {
  la::Matrix f = test::RandomOrthonormal(30, 3, 43);
  RotationOptions options;
  options.seed = 1;
  StatusOr<RotationResult> result = DiscretizeEmbedding(f, options);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < 30; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(result->indicator(i, j) == 0.0 ||
                  result->indicator(i, j) == 1.0);
      row_sum += result->indicator(i, j);
    }
    EXPECT_DOUBLE_EQ(row_sum, 1.0);
  }
}

TEST(DiscretizeTest, MoreRestartsNeverWorseObjective) {
  la::Matrix f = test::RandomOrthonormal(40, 4, 44);
  RotationOptions one;
  one.restarts = 1;
  one.seed = 7;
  RotationOptions many = one;
  many.restarts = 10;
  StatusOr<RotationResult> r1 = DiscretizeEmbedding(f, one);
  StatusOr<RotationResult> r10 = DiscretizeEmbedding(f, many);
  ASSERT_TRUE(r1.ok() && r10.ok());
  EXPECT_LE(r10->objective, r1->objective + 1e-9);
}

TEST(DiscretizeTest, InvalidInputsRejected) {
  EXPECT_FALSE(DiscretizeEmbedding(la::Matrix(2, 3), {}).ok());  // n < c
  RotationOptions zero_restarts;
  zero_restarts.restarts = 0;
  EXPECT_FALSE(
      DiscretizeEmbedding(la::Matrix(5, 2), zero_restarts).ok());
}

}  // namespace
}  // namespace umvsc::cluster
