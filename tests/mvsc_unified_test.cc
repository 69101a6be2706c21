#include "mvsc/unified.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/ops.h"

namespace umvsc::mvsc {
namespace {

struct TestProblem {
  data::MultiViewDataset dataset;
  MultiViewGraphs graphs;
};

TestProblem MakeProblem(std::uint64_t seed, std::size_t n = 150,
                        std::size_t c = 3) {
  data::MultiViewConfig config;
  config.num_samples = n;
  config.num_clusters = c;
  config.views = {{12, data::ViewQuality::kInformative, 0.4},
                  {8, data::ViewQuality::kWeak, 1.0},
                  {10, data::ViewQuality::kNoisy, 1.0}};
  config.cluster_separation = 5.0;
  config.seed = seed;
  auto dataset = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(dataset.ok(), "dataset generation failed");
  auto graphs = BuildGraphs(*dataset);
  UMVSC_CHECK(graphs.ok(), "graph construction failed");
  return {std::move(*dataset), std::move(*graphs)};
}

UnifiedOptions DefaultOptions(std::size_t c) {
  UnifiedOptions options;
  options.num_clusters = c;
  options.beta = 1.0;
  options.gamma = 2.0;
  options.seed = 11;
  return options;
}

TEST(UnifiedMvscTest, RecoversPlantedClusters) {
  TestProblem problem = MakeProblem(21);
  UnifiedMVSC solver(DefaultOptions(3));
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<double> acc =
      eval::ClusteringAccuracy(result->labels, problem.dataset.labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
}

TEST(UnifiedMvscTest, OutputInvariantsHold) {
  TestProblem problem = MakeProblem(22);
  UnifiedMVSC solver(DefaultOptions(3));
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok());
  const std::size_t n = problem.graphs.NumSamples();
  // Indicator is one-hot per row and matches labels.
  ASSERT_EQ(result->indicator.rows(), n);
  ASSERT_EQ(result->indicator.cols(), 3u);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += result->indicator(i, j);
    EXPECT_DOUBLE_EQ(row_sum, 1.0);
    EXPECT_DOUBLE_EQ(result->indicator(i, result->labels[i]), 1.0);
  }
  // F on the Stiefel manifold, R orthogonal.
  EXPECT_LT(la::OrthonormalityError(result->embedding), 1e-8);
  EXPECT_LT(la::OrthonormalityError(result->rotation), 1e-9);
  // Weights form a distribution.
  double total = 0.0;
  for (double w : result->view_weights) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(UnifiedMvscTest, NoisyViewGetsLowestWeight) {
  TestProblem problem = MakeProblem(23);
  UnifiedMVSC solver(DefaultOptions(3));
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok());
  // View order: informative, weak, noisy.
  EXPECT_LT(result->view_weights[2], result->view_weights[0]);
}

TEST(UnifiedMvscTest, ObjectiveTraceSettles) {
  TestProblem problem = MakeProblem(24);
  UnifiedOptions options = DefaultOptions(3);
  options.max_iterations = 40;
  UnifiedMVSC solver(options);
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->objective_trace.size(), 2u);
  // The trace ends no higher than it starts, and the tail is stable
  // (the Y-step uses the scaled-indicator heuristic, so we allow tiny
  // non-monotonic wiggles rather than asserting strict descent).
  EXPECT_LE(result->objective_trace.back(),
            result->objective_trace.front() + 1e-9);
  if (result->converged) {
    const auto& trace = result->objective_trace;
    const double last = trace[trace.size() - 1];
    const double prev = trace[trace.size() - 2];
    EXPECT_NEAR(last, prev, 1e-4 * std::max(1.0, std::abs(prev)));
  }
}

TEST(UnifiedMvscTest, DeterministicForFixedSeed) {
  TestProblem problem = MakeProblem(25);
  UnifiedMVSC solver(DefaultOptions(3));
  StatusOr<UnifiedResult> a = solver.Run(problem.graphs);
  StatusOr<UnifiedResult> b = solver.Run(problem.graphs);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->objective_trace, b->objective_trace);
}

TEST(UnifiedMvscTest, AllWeightingModesRun) {
  TestProblem problem = MakeProblem(26);
  for (auto mode : {ViewWeighting::kGammaPower, ViewWeighting::kAmgl,
                    ViewWeighting::kUniform}) {
    UnifiedOptions options = DefaultOptions(3);
    options.weighting = mode;
    UnifiedMVSC solver(options);
    StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    StatusOr<double> acc =
        eval::ClusteringAccuracy(result->labels, problem.dataset.labels);
    ASSERT_TRUE(acc.ok());
    EXPECT_GT(*acc, 0.9) << "mode " << static_cast<int>(mode);
  }
}

TEST(UnifiedMvscTest, UniformWeightingReportsUniformWeights) {
  TestProblem problem = MakeProblem(27);
  UnifiedOptions options = DefaultOptions(3);
  options.weighting = ViewWeighting::kUniform;
  UnifiedMVSC solver(options);
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok());
  for (double w : result->view_weights) EXPECT_NEAR(w, 1.0 / 3.0, 1e-12);
}

TEST(UnifiedMvscTest, LargerGammaFlattensWeights) {
  TestProblem problem = MakeProblem(28);
  UnifiedOptions sharp = DefaultOptions(3);
  sharp.gamma = 1.2;
  UnifiedOptions flat = DefaultOptions(3);
  flat.gamma = 8.0;
  StatusOr<UnifiedResult> rs = UnifiedMVSC(sharp).Run(problem.graphs);
  StatusOr<UnifiedResult> rf = UnifiedMVSC(flat).Run(problem.graphs);
  ASSERT_TRUE(rs.ok() && rf.ok());
  auto spread = [](const std::vector<double>& w) {
    return *std::max_element(w.begin(), w.end()) -
           *std::min_element(w.begin(), w.end());
  };
  EXPECT_GT(spread(rs->view_weights), spread(rf->view_weights));
}

TEST(UnifiedMvscTest, RunFromRawDatasetMatchesGraphPath) {
  TestProblem problem = MakeProblem(29);
  UnifiedMVSC solver(DefaultOptions(3));
  StatusOr<UnifiedResult> via_graphs = solver.Run(problem.graphs);
  StatusOr<UnifiedResult> via_dataset = solver.Run(problem.dataset);
  ASSERT_TRUE(via_graphs.ok() && via_dataset.ok());
  EXPECT_EQ(via_graphs->labels, via_dataset->labels);
}

TEST(UnifiedMvscTest, WarmStartMatchesColdStartWithFewerMatvecs) {
  TestProblem problem = MakeProblem(29);

  UnifiedOptions cold_options = DefaultOptions(3);
  cold_options.warm_start = false;
  // kExcess also exercises the per-view SpectralFloors matvec accounting.
  cold_options.smoothness = SmoothnessNormalization::kExcess;
  StatusOr<UnifiedResult> cold = UnifiedMVSC(cold_options).Run(problem.graphs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  UnifiedOptions warm_options = cold_options;
  warm_options.warm_start = true;
  StatusOr<UnifiedResult> warm = UnifiedMVSC(warm_options).Run(problem.graphs);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Warm starting is a solver-internal speedup: the clustering must agree
  // exactly (same partition up to label permutation) while the eigensolver
  // does strictly less work.
  StatusOr<double> agreement =
      eval::ClusteringAccuracy(warm->labels, cold->labels);
  ASSERT_TRUE(agreement.ok());
  EXPECT_EQ(*agreement, 1.0);
  EXPECT_LT(warm->lanczos_matvecs, cold->lanczos_matvecs);
  EXPECT_GT(warm->lanczos_matvecs, 0u);
}

// Metamorphic invariant of the exact path: the objective is a sum over
// views, so reversing the view order must leave the partition and the
// objective unchanged and reverse the learned weights.
TEST(UnifiedMvscTest, ReversingViewsReversesWeightsAndKeepsPartition) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    TestProblem problem = MakeProblem(seed);
    data::MultiViewDataset reversed = problem.dataset;
    std::reverse(reversed.views.begin(), reversed.views.end());
    UnifiedMVSC solver(DefaultOptions(3));
    StatusOr<UnifiedResult> forward =
        solver.Run(problem.dataset, GraphOptions());
    StatusOr<UnifiedResult> backward = solver.Run(reversed, GraphOptions());
    ASSERT_TRUE(forward.ok()) << forward.status().ToString();
    ASSERT_TRUE(backward.ok()) << backward.status().ToString();

    StatusOr<double> ari =
        eval::AdjustedRandIndex(backward->labels, forward->labels);
    ASSERT_TRUE(ari.ok());
    EXPECT_DOUBLE_EQ(*ari, 1.0);

    const std::size_t v = forward->view_weights.size();
    ASSERT_EQ(backward->view_weights.size(), v);
    for (std::size_t i = 0; i < v; ++i) {
      EXPECT_NEAR(backward->view_weights[i], forward->view_weights[v - 1 - i],
                  1e-9);
    }

    ASSERT_FALSE(forward->objective_trace.empty());
    ASSERT_FALSE(backward->objective_trace.empty());
    const double f = forward->objective_trace.back();
    const double b = backward->objective_trace.back();
    EXPECT_NEAR(b, f, 1e-9 * std::abs(f));
  }
}

// Metamorphic invariant of the exact path: nothing in the model depends on
// the order of the samples, so permuting the rows of every view (the same
// permutation in each) must permute the labels and nothing else.
TEST(UnifiedMvscTest, PermutingRowsPermutesLabels) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    TestProblem problem = MakeProblem(seed);
    const std::size_t n = problem.dataset.NumSamples();
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(perm.begin(), perm.end(), rng);
    data::MultiViewDataset permuted = problem.dataset;
    for (std::size_t v = 0; v < permuted.NumViews(); ++v) {
      const la::Matrix& from = problem.dataset.views[v];
      la::Matrix& to = permuted.views[v];
      for (std::size_t i = 0; i < n; ++i) {
        std::copy(from.RowPtr(perm[i]), from.RowPtr(perm[i]) + from.cols(),
                  to.RowPtr(i));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      permuted.labels[i] = problem.dataset.labels[perm[i]];
    }
    UnifiedMVSC solver(DefaultOptions(3));
    StatusOr<UnifiedResult> reference =
        solver.Run(problem.dataset, GraphOptions());
    StatusOr<UnifiedResult> shuffled = solver.Run(permuted, GraphOptions());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();

    std::vector<std::size_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = reference->labels[perm[i]];
    }
    StatusOr<double> ari = eval::AdjustedRandIndex(shuffled->labels, expected);
    ASSERT_TRUE(ari.ok());
    EXPECT_DOUBLE_EQ(*ari, 1.0);
  }
}

// Metamorphic invariant of the exact path: under `standardize` every
// feature is z-scored before the graphs are built, so multiplying a view's
// features by a positive constant must leave the partition unchanged. The
// scales are not powers of two, so the z-scores differ in rounding.
TEST(UnifiedMvscTest, PerViewFeatureScaleKeepsPartition) {
  const double scales[] = {0.013, 7.3, 1.9e3};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    TestProblem problem = MakeProblem(seed);
    data::MultiViewDataset scaled = problem.dataset;
    ASSERT_EQ(scaled.NumViews(), std::size(scales));
    for (std::size_t v = 0; v < scaled.NumViews(); ++v) {
      scaled.views[v].Scale(scales[v]);
    }
    GraphOptions graph_options;
    graph_options.standardize = true;
    UnifiedMVSC solver(DefaultOptions(3));
    StatusOr<UnifiedResult> reference =
        solver.Run(problem.dataset, graph_options);
    StatusOr<UnifiedResult> rescaled = solver.Run(scaled, graph_options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(rescaled.ok()) << rescaled.status().ToString();

    StatusOr<double> ari =
        eval::AdjustedRandIndex(rescaled->labels, reference->labels);
    ASSERT_TRUE(ari.ok());
    EXPECT_DOUBLE_EQ(*ari, 1.0);
  }
}

TEST(UnifiedMvscTest, RejectsInvalidOptions) {
  TestProblem problem = MakeProblem(30, 60, 3);
  UnifiedOptions options = DefaultOptions(3);
  options.num_clusters = 1;
  EXPECT_FALSE(UnifiedMVSC(options).Run(problem.graphs).ok());
  options = DefaultOptions(3);
  options.beta = -1.0;
  EXPECT_FALSE(UnifiedMVSC(options).Run(problem.graphs).ok());
  options = DefaultOptions(3);
  options.gamma = 1.0;
  EXPECT_FALSE(UnifiedMVSC(options).Run(problem.graphs).ok());
  EXPECT_FALSE(UnifiedMVSC(DefaultOptions(3)).Run(MultiViewGraphs{}).ok());
}

TEST(UnifiedMvscTest, WorksWithManyClusters) {
  TestProblem problem = MakeProblem(31, 200, 8);
  UnifiedMVSC solver(DefaultOptions(8));
  StatusOr<UnifiedResult> result = solver.Run(problem.graphs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<double> acc =
      eval::ClusteringAccuracy(result->labels, problem.dataset.labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.8);
}

}  // namespace
}  // namespace umvsc::mvsc
