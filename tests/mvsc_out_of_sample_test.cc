#include "mvsc/out_of_sample.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <utility>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc {
namespace {

// Train/test pair drawn from the same latent configuration via a fixed
// generator seed: the generator is deterministic, so regenerating with a
// larger n and splitting yields i.i.d. train/test from one distribution.
struct Split {
  data::MultiViewDataset train;
  data::MultiViewDataset test;
};

Split MakeSplit(std::uint64_t seed) {
  data::MultiViewConfig config;
  config.num_samples = 240;
  config.num_clusters = 3;
  config.views = {{10, data::ViewQuality::kInformative, 0.4},
                  {6, data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 5.0;
  config.seed = seed;
  auto full = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(full.ok(), "dataset generation failed");
  Split split;
  const std::size_t n_train = 180;
  const std::size_t n = full->NumSamples();
  for (std::size_t v = 0; v < full->NumViews(); ++v) {
    split.train.views.push_back(
        full->views[v].Block(0, 0, n_train, full->views[v].cols()));
    split.test.views.push_back(full->views[v].Block(
        n_train, 0, n - n_train, full->views[v].cols()));
  }
  split.train.labels.assign(full->labels.begin(),
                            full->labels.begin() + n_train);
  split.test.labels.assign(full->labels.begin() + n_train, full->labels.end());
  split.train.name = "train";
  split.test.name = "test";
  return split;
}

TEST(OutOfSampleTest, NewPointsGetConsistentClusters) {
  Split split = MakeSplit(80);
  UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 1;
  StatusOr<UnifiedResult> fitted = UnifiedMVSC(options).Run(split.train);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  // Sanity: training clustering is good.
  auto train_acc =
      eval::ClusteringAccuracy(fitted->labels, split.train.labels);
  ASSERT_TRUE(train_acc.ok());
  ASSERT_GT(*train_acc, 0.9);

  StatusOr<OutOfSampleModel> model = OutOfSampleModel::Fit(
      split.train, fitted->labels, fitted->view_weights);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  StatusOr<std::vector<std::size_t>> predicted = model->Predict(split.test);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  ASSERT_EQ(predicted->size(), split.test.NumSamples());
  // The extension must carry the clustering to unseen points.
  auto test_acc = eval::ClusteringAccuracy(*predicted, split.test.labels);
  ASSERT_TRUE(test_acc.ok());
  EXPECT_GT(*test_acc, 0.85);
}

TEST(OutOfSampleTest, PredictingTrainingPointsReproducesLabelsMostly) {
  Split split = MakeSplit(81);
  std::vector<double> uniform(split.train.NumViews(),
                              1.0 / split.train.NumViews());
  StatusOr<OutOfSampleModel> model =
      OutOfSampleModel::Fit(split.train, split.train.labels, uniform);
  ASSERT_TRUE(model.ok());
  StatusOr<std::vector<std::size_t>> predicted = model->Predict(split.train);
  ASSERT_TRUE(predicted.ok());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < predicted->size(); ++i) {
    agree += (*predicted)[i] == split.train.labels[i];
  }
  EXPECT_GT(static_cast<double>(agree) / predicted->size(), 0.95);
}

TEST(OutOfSampleTest, RejectsMismatchedBatches) {
  Split split = MakeSplit(82);
  std::vector<double> uniform(2, 0.5);
  StatusOr<OutOfSampleModel> model =
      OutOfSampleModel::Fit(split.train, split.train.labels, uniform);
  ASSERT_TRUE(model.ok());

  data::MultiViewDataset wrong_views;
  wrong_views.views.push_back(split.test.views[0]);
  EXPECT_FALSE(model->Predict(wrong_views).ok());

  data::MultiViewDataset wrong_dims = split.test;
  wrong_dims.views[1] = la::Matrix(split.test.NumSamples(), 3);
  EXPECT_FALSE(model->Predict(wrong_dims).ok());
}

TEST(OutOfSampleTest, FitValidatesInputs) {
  Split split = MakeSplit(83);
  std::vector<double> uniform(2, 0.5);
  std::vector<std::size_t> short_labels(5, 0);
  EXPECT_FALSE(OutOfSampleModel::Fit(split.train, short_labels, uniform).ok());
  std::vector<double> bad_weights{0.5, -0.5};
  EXPECT_FALSE(
      OutOfSampleModel::Fit(split.train, split.train.labels, bad_weights).ok());
  std::vector<double> wrong_count{1.0};
  EXPECT_FALSE(
      OutOfSampleModel::Fit(split.train, split.train.labels, wrong_count).ok());
  OutOfSampleOptions options;
  options.knn = 0;
  EXPECT_FALSE(OutOfSampleModel::Fit(split.train, split.train.labels, uniform,
                                     options)
                   .ok());
}

TEST(OutOfSampleTest, FitRejectsNonFiniteViewWeights) {
  Split split = MakeSplit(86);
  // NaN < 0 is false, so a sign check alone would let NaN through and turn
  // every fused affinity into NaN.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const std::vector<double> weights{0.5, bad};
    StatusOr<OutOfSampleModel> model =
        OutOfSampleModel::Fit(split.train, split.train.labels, weights);
    ASSERT_FALSE(model.ok()) << "weight " << bad;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  }
}

/// `batch` with its rows reordered: row i of the result is row order[i].
data::MultiViewDataset PermuteRows(const data::MultiViewDataset& batch,
                                   const std::vector<std::size_t>& order) {
  data::MultiViewDataset out;
  for (const la::Matrix& view : batch.views) {
    la::Matrix m(order.size(), view.cols());
    for (std::size_t i = 0; i < order.size(); ++i) {
      std::copy(view.RowPtr(order[i]), view.RowPtr(order[i]) + view.cols(),
                m.RowPtr(i));
    }
    out.views.push_back(std::move(m));
  }
  return out;
}

// Metamorphic: a point's label depends on that point alone, so permuting
// a batch's rows permutes its labels — for the anchor path (whose rows are
// spread over several row tiles) and the exact path alike.
TEST(OutOfSampleTest, PermutingRowsPermutesLabels) {
  Split split = MakeSplit(87);
  UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 5;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 32;
  options.anchors.anchor_neighbors = 5;
  StatusOr<AnchorUnifiedResult> fitted =
      SolveUnifiedAnchors(split.train, options);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  StatusOr<OutOfSampleModel> anchor =
      OutOfSampleModel::FitAnchor(fitted->model);
  ASSERT_TRUE(anchor.ok()) << anchor.status().ToString();
  StatusOr<OutOfSampleModel> exact = OutOfSampleModel::Fit(
      split.train, split.train.labels, std::vector<double>{0.6, 0.4});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  const std::size_t n = split.train.NumSamples();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937(87));
  const data::MultiViewDataset permuted = PermuteRows(split.train, order);

  for (const OutOfSampleModel* model : {&*anchor, &*exact}) {
    StatusOr<std::vector<std::size_t>> base = model->Predict(split.train);
    StatusOr<std::vector<std::size_t>> moved = model->Predict(permuted);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ASSERT_EQ(moved->size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ((*moved)[i], (*base)[order[i]])
          << (model->anchor_model() ? "anchor" : "exact") << " row " << i;
    }
  }
}

// The anchor-mode serving path: FitAnchor wraps the model of a completed
// anchor solve, and Predict assigns new points through anchors only (never
// the training rows). Re-predicting the TRAINING set must reproduce the
// training labels — the prediction chain (s-sparse anchor row → anchor_map
// → assignment argmax) is the same chain the solver used to label them.
TEST(OutOfSampleTest, AnchorModelReproducesTrainingLabels) {
  Split split = MakeSplit(84);
  UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 5;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 32;
  options.anchors.anchor_neighbors = 5;
  StatusOr<AnchorUnifiedResult> fitted =
      SolveUnifiedAnchors(split.train, options);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto train_acc =
      eval::ClusteringAccuracy(fitted->result.labels, split.train.labels);
  ASSERT_TRUE(train_acc.ok());
  ASSERT_GT(*train_acc, 0.9);

  StatusOr<OutOfSampleModel> model = OutOfSampleModel::FitAnchor(fitted->model);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->num_clusters(), 3u);

  StatusOr<std::vector<std::size_t>> replayed = model->Predict(split.train);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, fitted->result.labels);

  // And it generalizes: held-out points land in the right clusters.
  StatusOr<std::vector<std::size_t>> predicted = model->Predict(split.test);
  ASSERT_TRUE(predicted.ok());
  auto test_acc = eval::ClusteringAccuracy(*predicted, split.test.labels);
  ASSERT_TRUE(test_acc.ok());
  EXPECT_GT(*test_acc, 0.85);
}

TEST(OutOfSampleTest, FitAnchorValidatesTheModel) {
  Split split = MakeSplit(85);
  UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 5;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 24;
  StatusOr<AnchorUnifiedResult> fitted =
      SolveUnifiedAnchors(split.train, options);
  ASSERT_TRUE(fitted.ok());

  AnchorModel empty;
  EXPECT_FALSE(OutOfSampleModel::FitAnchor(empty).ok());

  AnchorModel bad_dims = fitted->model;
  bad_dims.assignment = la::Matrix(3, 3);
  EXPECT_FALSE(OutOfSampleModel::FitAnchor(bad_dims).ok());

  AnchorModel bad_neighbors = fitted->model;
  bad_neighbors.anchor_neighbors = 0;
  EXPECT_FALSE(OutOfSampleModel::FitAnchor(bad_neighbors).ok());

  // Batch shape mismatches are caught by the anchor Predict too.
  StatusOr<OutOfSampleModel> model = OutOfSampleModel::FitAnchor(fitted->model);
  ASSERT_TRUE(model.ok());
  data::MultiViewDataset wrong_views;
  wrong_views.views.push_back(split.test.views[0]);
  EXPECT_FALSE(model->Predict(wrong_views).ok());
  data::MultiViewDataset wrong_dims = split.test;
  wrong_dims.views[1] = la::Matrix(split.test.NumSamples(), 3);
  EXPECT_FALSE(model->Predict(wrong_dims).ok());
}

// A NaN or Inf in any served array would make Predict return garbage
// without an error (NaN distances and scores never win a comparison), so
// FitAnchor rejects each one — every array, both kinds of non-finite.
TEST(OutOfSampleTest, FitAnchorRejectsNonFiniteModel) {
  Split split = MakeSplit(87);
  UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 5;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 24;
  StatusOr<AnchorUnifiedResult> fitted =
      SolveUnifiedAnchors(split.train, options);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  ASSERT_TRUE(OutOfSampleModel::FitAnchor(fitted->model).ok());

  using Poison = void (*)(AnchorModel*, double);
  const std::pair<const char*, Poison> sites[] = {
      {"anchors",
       [](AnchorModel* m, double x) { m->views[1].anchors(3, 2) = x; }},
      {"anchor_map",
       [](AnchorModel* m, double x) { m->views[0].anchor_map(5, 0) = x; }},
      {"feature_means",
       [](AnchorModel* m, double x) { m->views[0].feature_means[1] = x; }},
      {"feature_inv_stds",
       [](AnchorModel* m, double x) { m->views[1].feature_inv_stds[0] = x; }},
      {"assignment", [](AnchorModel* m, double x) { m->assignment(0, 1) = x; }},
  };
  for (const auto& [name, poison] : sites) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::infinity()}) {
      AnchorModel model = fitted->model;
      poison(&model, bad);
      StatusOr<OutOfSampleModel> out = OutOfSampleModel::FitAnchor(model);
      ASSERT_FALSE(out.ok()) << name << " = " << bad;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << name;
    }
  }
}

}  // namespace
}  // namespace umvsc::mvsc
