#include "serve/batch_assign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "data/synthetic.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/out_of_sample.h"
#include "mvsc/unified.h"

namespace umvsc::serve {
namespace {

struct Fixture {
  data::MultiViewDataset train;
  data::MultiViewDataset test;
};

// One view is 300-dimensional — past la::kernel's 256-wide kc block — so
// the split assertions cover the multi-block accumulation path, not just
// the degenerate single-block case.
Fixture MakeFixture(std::uint64_t seed) {
  data::MultiViewConfig config;
  config.num_samples = 230;
  config.num_clusters = 3;
  config.views = {{300, data::ViewQuality::kInformative, 0.8},
                  {20, data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 5.0;
  config.seed = seed;
  auto full = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(full.ok(), "dataset generation failed");
  Fixture fx;
  const std::size_t n_train = 150;
  const std::size_t n = full->NumSamples();
  for (std::size_t v = 0; v < full->NumViews(); ++v) {
    fx.train.views.push_back(
        full->views[v].Block(0, 0, n_train, full->views[v].cols()));
    fx.test.views.push_back(full->views[v].Block(
        n_train, 0, n - n_train, full->views[v].cols()));
  }
  fx.train.labels.assign(full->labels.begin(),
                         full->labels.begin() + n_train);
  return fx;
}

ModelHandle MakeAnchorHandle(const Fixture& fx) {
  mvsc::UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 4;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 32;
  options.anchors.anchor_neighbors = 4;
  auto solved = mvsc::SolveUnifiedAnchors(fx.train, options);
  UMVSC_CHECK(solved.ok(), "anchor solve failed");
  auto model = mvsc::OutOfSampleModel::FitAnchor(std::move(solved->model));
  UMVSC_CHECK(model.ok(), "FitAnchor failed");
  return std::make_shared<const mvsc::OutOfSampleModel>(*std::move(model));
}

/// Rows [begin, begin + count) of `src` as an unlabeled batch.
data::MultiViewDataset Rows(const data::MultiViewDataset& src,
                            std::size_t begin, std::size_t count) {
  data::MultiViewDataset out;
  for (const la::Matrix& view : src.views) {
    out.views.push_back(view.Block(begin, 0, count, view.cols()));
  }
  return out;
}

TEST(BatchAssignTest, LabelsDoNotDependOnHowTheBatchIsSplit) {
  const Fixture fx = MakeFixture(71);
  const ModelHandle handle = MakeAnchorHandle(fx);
  const BatchAssigner assigner(handle);
  const std::size_t n = fx.test.NumSamples();
  ASSERT_GT(n, std::size_t{65});

  // Single-row calls take GemmAdd's one-row kernel; chunks of 7, 63, 64
  // and 65 rows take its 4×8 tiles, with tile edges before, at and past
  // the 64-row tile. Every split must reproduce the whole batch bit for bit,
  // at every thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedNumThreads scope(threads);
    auto whole = assigner.Assign(fx.test);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    ASSERT_EQ(whole->size(), n);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}}) {
      std::vector<std::size_t> joined;
      for (std::size_t begin = 0; begin < n; begin += chunk) {
        auto part = assigner.Assign(Rows(fx.test, begin,
                                         std::min(chunk, n - begin)));
        ASSERT_TRUE(part.ok()) << part.status().ToString();
        joined.insert(joined.end(), part->begin(), part->end());
      }
      EXPECT_EQ(joined, *whole) << "threads " << threads << " chunk " << chunk;
    }
  }
}

TEST(BatchAssignTest, TrainingPointsKeepTheirTrainingLabels) {
  const Fixture fx = MakeFixture(72);
  mvsc::UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 4;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 32;
  options.anchors.anchor_neighbors = 4;
  auto solved = mvsc::SolveUnifiedAnchors(fx.train, options);
  ASSERT_TRUE(solved.ok());
  const std::vector<std::size_t> train_labels = solved->result.labels;
  auto model = mvsc::OutOfSampleModel::FitAnchor(std::move(solved->model));
  ASSERT_TRUE(model.ok());
  const BatchAssigner assigner(
      std::make_shared<const mvsc::OutOfSampleModel>(*std::move(model)));
  // The anchor extension reproduces the training assignment chain, so
  // re-assigning the training batch must replay the training labels.
  auto replay = assigner.Assign(fx.train);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, train_labels);
}

TEST(BatchAssignTest, ExactPathModelsFallBackToPredict) {
  const Fixture fx = MakeFixture(73);
  auto model = mvsc::OutOfSampleModel::Fit(fx.train, fx.train.labels,
                                           {0.6, 0.4});
  ASSERT_TRUE(model.ok());
  const ModelHandle handle =
      std::make_shared<const mvsc::OutOfSampleModel>(*std::move(model));
  auto serial = handle->Predict(fx.test);
  ASSERT_TRUE(serial.ok());
  auto batched = BatchAssigner(handle).Assign(fx.test);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(*batched, *serial);
}

TEST(BatchAssignTest, RejectsMismatchedBatches) {
  const Fixture fx = MakeFixture(74);
  const BatchAssigner assigner(MakeAnchorHandle(fx));

  data::MultiViewDataset wrong_views;
  wrong_views.views.push_back(fx.test.views[0]);
  auto r1 = assigner.Assign(wrong_views);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  data::MultiViewDataset wrong_dims;
  wrong_dims.views.push_back(fx.test.views[1]);
  wrong_dims.views.push_back(fx.test.views[0]);
  auto r2 = assigner.Assign(wrong_dims);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace umvsc::serve
