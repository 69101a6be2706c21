#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "mvsc/anchor_unified.h"
#include "stream/streaming_unified.h"

namespace umvsc::stream {
namespace {

data::DriftStreamConfig StreamConfig() {
  data::DriftStreamConfig config;
  config.batch_size = 150;
  config.num_clusters = 3;
  config.views = {{12, data::ViewQuality::kInformative, 0.4},
                  {9, data::ViewQuality::kInformative, 0.6},
                  {7, data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 6.0;
  config.seed = 42;
  return config;
}

StreamingOptions BaseOptions() {
  StreamingOptions options;
  options.unified.num_clusters = 3;
  options.unified.seed = 5;
  options.unified.anchors.num_anchors = 48;
  options.unified.anchors.anchor_neighbors = 3;
  options.window_capacity = 600;
  return options;
}

TEST(StreamingUnifiedTest, TracksAStationaryStream) {
  auto gen = data::DriftStreamGenerator::Create(StreamConfig());
  ASSERT_TRUE(gen.ok());
  auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<std::size_t> truth;  // ground truth of the window, oldest first
  for (std::size_t t = 0; t < 6; ++t) {
    auto batch = gen->NextBatch();
    ASSERT_TRUE(batch.ok());
    truth.insert(truth.end(), batch->labels.begin(), batch->labels.end());
    auto update = stream->Ingest(*batch);
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    if (truth.size() > stream->options().window_capacity) {
      truth.erase(truth.begin(),
                  truth.end() - static_cast<std::ptrdiff_t>(
                                    stream->options().window_capacity));
    }
    EXPECT_EQ(update->window_size, truth.size());
    ASSERT_EQ(update->labels.size(), truth.size());
    EXPECT_EQ(update->full_resolve, t == 0) << "batch " << t;
    auto acc = eval::ClusteringAccuracy(update->labels, truth);
    ASSERT_TRUE(acc.ok());
    EXPECT_GT(*acc, 0.93) << "batch " << t;
  }
  // Stationary stream: exactly the first-batch full solve, the rest warm.
  EXPECT_EQ(stream->full_resolves(), 1u);
  EXPECT_EQ(stream->incremental_updates(), 5u);
}

TEST(StreamingUnifiedTest, EvictionInvariants) {
  auto gen = data::DriftStreamGenerator::Create(StreamConfig());
  ASSERT_TRUE(gen.ok());
  StreamingOptions options = BaseOptions();
  options.window_capacity = 400;  // not a batch multiple: partial evictions
  auto stream = StreamingUnifiedMVSC::Create(options);
  ASSERT_TRUE(stream.ok());
  std::size_t ingested = 0;
  for (std::size_t t = 0; t < 5; ++t) {
    auto batch = gen->NextBatch();
    ASSERT_TRUE(batch.ok());
    ingested += batch->NumSamples();
    auto update = stream->Ingest(*batch);
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    const std::size_t expect_window = std::min<std::size_t>(ingested, 400);
    EXPECT_EQ(update->window_size, expect_window);
    EXPECT_EQ(stream->window_size(), expect_window);
    EXPECT_EQ(update->evicted,
              ingested > 400 ? std::min<std::size_t>(ingested - 400, 150) : 0);
    EXPECT_EQ(update->labels.size(), expect_window);
    EXPECT_EQ(stream->window_labels().size(), expect_window);
  }
}

TEST(StreamingUnifiedTest, WarmVsColdParityOnStaticStream) {
  // Same frozen model, same window, same reduced problem — the only
  // difference is the alternation entry (carried warm state + small
  // budgets vs cold discretize-init + batch budgets). On a stationary
  // stream both must land on the SAME partition, and the warm entry must
  // spend strictly fewer Lanczos matvecs on every incremental update.
  StreamingOptions warm_options = BaseOptions();
  StreamingOptions cold_options = BaseOptions();
  cold_options.warm_updates = false;
  auto warm = StreamingUnifiedMVSC::Create(warm_options);
  auto cold = StreamingUnifiedMVSC::Create(cold_options);
  ASSERT_TRUE(warm.ok() && cold.ok());
  auto gen_a = data::DriftStreamGenerator::Create(StreamConfig());
  auto gen_b = data::DriftStreamGenerator::Create(StreamConfig());
  ASSERT_TRUE(gen_a.ok() && gen_b.ok());
  for (std::size_t t = 0; t < 6; ++t) {
    auto batch_a = gen_a->NextBatch();
    auto batch_b = gen_b->NextBatch();
    ASSERT_TRUE(batch_a.ok() && batch_b.ok());
    auto wu = warm->Ingest(*batch_a);
    auto cu = cold->Ingest(*batch_b);
    ASSERT_TRUE(wu.ok()) << wu.status().ToString();
    ASSERT_TRUE(cu.ok()) << cu.status().ToString();
    if (t == 0) {
      // The shared full solve: bitwise the same state on both sides.
      EXPECT_EQ(wu->labels, cu->labels);
      EXPECT_EQ(wu->lanczos_matvecs, cu->lanczos_matvecs);
      continue;
    }
    // Identical partition (label numbering is gauge: the cold path re-runs
    // seeded discretization restarts each batch, so compare partitions).
    auto acc = eval::ClusteringAccuracy(wu->labels, cu->labels);
    ASSERT_TRUE(acc.ok());
    EXPECT_DOUBLE_EQ(*acc, 1.0) << "batch " << t;
    EXPECT_LT(wu->lanczos_matvecs, cu->lanczos_matvecs) << "batch " << t;
  }
}

TEST(StreamingUnifiedTest, DriftTriggersFullResolve) {
  data::DriftStreamConfig config = StreamConfig();
  config.drift_rate = 0.45;
  config.drift_start_batch = 3;
  auto gen = data::DriftStreamGenerator::Create(config);
  ASSERT_TRUE(gen.ok());
  auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
  ASSERT_TRUE(stream.ok());
  bool drift_fired = false;
  for (std::size_t t = 0; t < 10; ++t) {
    auto batch = gen->NextBatch();
    ASSERT_TRUE(batch.ok());
    auto update = stream->Ingest(*batch);
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    if (t > 0 && update->full_resolve) {
      drift_fired = true;
      EXPECT_EQ(update->resolve_reason.rfind("drift:", 0), 0u)
          << update->resolve_reason;
    }
  }
  EXPECT_TRUE(drift_fired);
  EXPECT_GT(stream->full_resolves(), 1u);
}

TEST(StreamingUnifiedTest, TriggerPatternAndLabelsAreThreadInvariant) {
  // The whole streaming pipeline — per-point extension, basis rebuild,
  // reduced solves, drift detection — must be bitwise deterministic in the
  // thread count: same triggers at the same batches, same labels.
  data::DriftStreamConfig config = StreamConfig();
  config.drift_rate = 0.45;
  config.drift_start_batch = 3;
  auto run = [&](std::size_t threads) {
    ScopedNumThreads scoped(threads);
    auto gen = data::DriftStreamGenerator::Create(config);
    UMVSC_CHECK(gen.ok(), "generator");
    auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
    UMVSC_CHECK(stream.ok(), "stream");
    std::vector<std::string> reasons;
    std::vector<std::vector<std::size_t>> labels;
    std::vector<double> objectives;
    for (std::size_t t = 0; t < 8; ++t) {
      auto batch = gen->NextBatch();
      UMVSC_CHECK(batch.ok(), "batch");
      auto update = stream->Ingest(*batch);
      UMVSC_CHECK(update.ok(), "update");
      reasons.push_back(update->resolve_reason);
      labels.push_back(update->labels);
      objectives.push_back(update->objective);
    }
    return std::make_tuple(reasons, labels, objectives);
  };
  const auto t1 = run(1);
  const auto t2 = run(2);
  const auto t8 = run(8);
  EXPECT_EQ(std::get<0>(t1), std::get<0>(t2));
  EXPECT_EQ(std::get<0>(t1), std::get<0>(t8));
  EXPECT_EQ(std::get<1>(t1), std::get<1>(t2));
  EXPECT_EQ(std::get<1>(t1), std::get<1>(t8));
  EXPECT_EQ(std::get<2>(t1), std::get<2>(t2));
  EXPECT_EQ(std::get<2>(t1), std::get<2>(t8));
}

TEST(StreamingUnifiedTest, SetNumClustersReResolvesDerivedDims) {
  auto gen = data::DriftStreamGenerator::Create(StreamConfig());
  ASSERT_TRUE(gen.ok());
  auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
  ASSERT_TRUE(stream.ok());
  auto batch = gen->NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(stream->Ingest(*batch).ok());
  // basis_per_view = 0 resolved against c = 3 → c + 2 dims per view.
  EXPECT_EQ(stream->view_basis_dims(0), 5u);

  ASSERT_TRUE(stream->SetNumClusters(4).ok());
  auto batch2 = gen->NextBatch();
  ASSERT_TRUE(batch2.ok());
  auto update = stream->Ingest(*batch2);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(update->full_resolve);
  EXPECT_EQ(update->resolve_reason, "cluster-count-change");
  // The derived default was re-resolved against the NEW count, not served
  // from a stale cache.
  EXPECT_EQ(stream->view_basis_dims(0), 6u);
  for (std::size_t label : update->labels) EXPECT_LT(label, 4u);

  EXPECT_FALSE(stream->SetNumClusters(1).ok());
}

TEST(StreamingUnifiedTest, RejectsInvalidSolverOptions) {
  // The stream rejects what SolveUnifiedAnchors rejects: each of these
  // would otherwise solve to a degenerate weighting or fail deep inside
  // the eigensolver.
  StreamingOptions options = BaseOptions();
  options.unified.gamma = 0.5;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());
  options = BaseOptions();
  options.unified.gamma = 1.0;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());
  options = BaseOptions();
  options.unified.beta = -1.0;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());
  options = BaseOptions();
  options.unified.anchors.num_anchors = 1;
  options.unified.anchors.anchor_neighbors = 1;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());
  options = BaseOptions();
  options.unified.anchors.anchor_neighbors = 0;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());
  options = BaseOptions();
  options.unified.anchors.anchor_neighbors =
      options.unified.anchors.num_anchors + 1;
  EXPECT_FALSE(StreamingUnifiedMVSC::Create(options).ok());

  // γ is only read by the γ-power weighting, as on the batch paths.
  options = BaseOptions();
  options.unified.gamma = 0.5;
  options.unified.weighting = mvsc::ViewWeighting::kAmgl;
  EXPECT_TRUE(StreamingUnifiedMVSC::Create(options).ok());

  // SetNumClusters runs the same check against the new count.
  auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->SetNumClusters(1).ok());
  EXPECT_TRUE(stream->SetNumClusters(4).ok());
}

TEST(StreamingUnifiedTest, FirstFullSolveMatchesSolveUnifiedAnchors) {
  // The stream's full solve is the batch anchor solver run on the window:
  // the same per-view fit (mvsc::FitAnchorView), the same reduced-problem
  // builder (mvsc::BuildReducedProblem) and the same cold alternation. On a
  // window holding exactly one batch the two must agree bit for bit, at
  // every thread count.
  data::DriftStreamConfig config = StreamConfig();
  config.batch_size = 600;  // = window_capacity: one batch fills the window
  for (const std::size_t threads : {1u, 8u}) {
    ScopedNumThreads scoped(threads);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      config.seed = 40 + seed;
      StreamingOptions options = BaseOptions();
      options.unified.seed = seed;
      auto gen = data::DriftStreamGenerator::Create(config);
      ASSERT_TRUE(gen.ok());
      auto batch = gen->NextBatch();
      ASSERT_TRUE(batch.ok());
      auto stream = StreamingUnifiedMVSC::Create(options);
      ASSERT_TRUE(stream.ok());
      auto update = stream->Ingest(*batch);
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_TRUE(update->full_resolve);
      auto solved = mvsc::SolveUnifiedAnchors(*batch, options.unified,
                                              /*standardize=*/true);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      const mvsc::UnifiedResult& want = solved->result;
      EXPECT_EQ(update->labels, want.labels)
          << "threads " << threads << " seed " << seed;
      EXPECT_EQ(update->view_weights, want.view_weights)
          << "threads " << threads << " seed " << seed;
      ASSERT_FALSE(want.objective_trace.empty());
      EXPECT_EQ(update->objective, want.objective_trace.back())
          << "threads " << threads << " seed " << seed;
      EXPECT_EQ(update->lanczos_matvecs, want.lanczos_matvecs)
          << "threads " << threads << " seed " << seed;
    }
  }
}

TEST(StreamingUnifiedTest, OversizedBatchOnFullPathClampsCompaction) {
  // Regression: Ingest's full path skips ExtendRows (the full solve refits
  // every row), so a batch larger than the window leaves the model arrays
  // with FEWER than head_ rows at compaction time — the erase must clamp to
  // each array's length (it used to erase past the end).
  data::DriftStreamConfig config = StreamConfig();
  config.batch_size = 500;
  auto gen = data::DriftStreamGenerator::Create(config);
  ASSERT_TRUE(gen.ok());
  StreamingOptions options = BaseOptions();
  options.window_capacity = 200;  // every batch overflows the window alone
  options.always_full_resolve = true;
  auto stream = StreamingUnifiedMVSC::Create(options);
  ASSERT_TRUE(stream.ok());
  for (std::size_t t = 0; t < 3; ++t) {
    auto batch = gen->NextBatch();
    ASSERT_TRUE(batch.ok());
    auto update = stream->Ingest(*batch);
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    EXPECT_TRUE(update->full_resolve) << "batch " << t;
    EXPECT_EQ(update->window_size, 200u);
    EXPECT_EQ(update->evicted, t == 0 ? 300u : 500u);
    ASSERT_EQ(update->labels.size(), 200u);
    const std::vector<std::size_t> truth(batch->labels.end() - 200,
                                         batch->labels.end());
    auto acc = eval::ClusteringAccuracy(update->labels, truth);
    ASSERT_TRUE(acc.ok());
    EXPECT_GT(*acc, 0.9) << "batch " << t;
  }
  EXPECT_EQ(stream->full_resolves(), 3u);
}

TEST(StreamingUnifiedTest, RejectsSchemaDrift) {
  auto gen = data::DriftStreamGenerator::Create(StreamConfig());
  ASSERT_TRUE(gen.ok());
  auto stream = StreamingUnifiedMVSC::Create(BaseOptions());
  ASSERT_TRUE(stream.ok());
  auto batch = gen->NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(stream->Ingest(*batch).ok());
  // A batch with different view dims must be rejected.
  data::DriftStreamConfig other = StreamConfig();
  other.views[1].dim = 4;
  auto gen2 = data::DriftStreamGenerator::Create(other);
  ASSERT_TRUE(gen2.ok());
  auto bad = gen2->NextBatch();
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(stream->Ingest(*bad).ok());
}

}  // namespace
}  // namespace umvsc::stream
