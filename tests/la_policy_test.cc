// Tests of the eigensolver auto-policy: resolution order, the shape rule
// (block iff k ≥ 16, whatever n is), and — the property everything above
// the la layer leans on — that the two paths the policy switches between
// produce identical partitions. Their floating-point bits may still
// differ, which is why the rule reads only k and never a timing.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/lanczos.h"
#include "mvsc/unified.h"

namespace umvsc {
namespace {

// The rule over a grid that brackets every paper shape, the n = 200 000
// anchor regime, and (192, 12), where the two solvers' wall times are
// close enough that a timing-based choice would flip with host load.
TEST(EigensolveModeTest, AutoIsBlockExactlyWhenKIsAtLeast16) {
  for (const std::size_t n : {50u, 192u, 400u, 2000u, 200000u}) {
    for (const std::size_t k : {1u, 2u, 12u, 15u, 16u, 40u}) {
      const la::EigensolveMode expected = k >= 16
                                              ? la::EigensolveMode::kForceBlock
                                              : la::EigensolveMode::kForceSingle;
      EXPECT_EQ(la::ResolveEigensolveMode(la::EigensolveMode::kAuto, n, k),
                expected)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(EigensolveModeTest, ResolveNeverReturnsAuto) {
  for (const std::size_t n : {50u, 200u, 2000u}) {
    for (const std::size_t k : {1u, 5u, 40u}) {
      const la::EigensolveMode mode =
          la::ResolveEigensolveMode(la::EigensolveMode::kAuto, n, k);
      EXPECT_NE(mode, la::EigensolveMode::kAuto);
    }
  }
}

TEST(EigensolveModeTest, ExplicitRequestWins) {
  EXPECT_EQ(la::ResolveEigensolveMode(la::EigensolveMode::kForceBlock, 10, 1),
            la::EigensolveMode::kForceBlock);
  EXPECT_EQ(
      la::ResolveEigensolveMode(la::EigensolveMode::kForceSingle, 400, 40),
      la::EigensolveMode::kForceSingle);
}

TEST(EigensolveModeTest, AutoDispatchMatchesForcedPathBitwise) {
  // The auto entry points must be pure routers: under a pinned mode they
  // reproduce the corresponding direct solver bit for bit.
  data::MultiViewConfig config;
  config.num_samples = 90;
  config.num_clusters = 3;
  config.views = {{10, data::ViewQuality::kInformative, 0.4}};
  config.cluster_separation = 5.0;
  config.seed = 5;
  auto dataset = data::MakeGaussianMultiView(config);
  ASSERT_TRUE(dataset.ok());
  auto graphs = mvsc::BuildGraphs(*dataset);
  ASSERT_TRUE(graphs.ok());
  const la::CsrMatrix& lap = graphs->laplacians[0];

  la::LanczosOptions options;
  options.tolerance = 3e-6;
  for (const la::EigensolveMode mode :
       {la::EigensolveMode::kForceBlock, la::EigensolveMode::kForceSingle}) {
    StatusOr<la::SymEigenResult> via_auto =
        la::LanczosSmallestAuto(lap, 3, 2.0 + 1e-9, options, mode);
    StatusOr<la::SymEigenResult> direct =
        mode == la::EigensolveMode::kForceBlock
            ? la::BlockLanczosSmallest(lap, 3, 2.0 + 1e-9, options)
            : la::LanczosSmallest(lap, 3, 2.0 + 1e-9, options);
    ASSERT_TRUE(via_auto.ok()) << via_auto.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(via_auto->eigenvalues[j], direct->eigenvalues[j]);
    }
    for (std::size_t i = 0; i < via_auto->eigenvectors.size(); ++i) {
      ASSERT_EQ(via_auto->eigenvectors.data()[i],
                direct->eigenvectors.data()[i]);
    }
  }
}

// Forced-block and forced-single runs of the full solver must land on the
// SAME partition (ARI exactly 1.0) — the guarantee that lets the policy
// choose on wall-time grounds alone. Shapes mirror the small paper
// datasets (3-Sources-scale and a 3-cluster problem).
TEST(EigensolveModeTest, ForcedPathsProduceIdenticalPartitions) {
  struct Shape {
    std::size_t n;
    std::size_t c;
  };
  for (const Shape shape : {Shape{169, 6}, Shape{150, 3}}) {
    data::MultiViewConfig config;
    config.num_samples = shape.n;
    config.num_clusters = shape.c;
    config.views = {{12, data::ViewQuality::kInformative, 0.4},
                    {8, data::ViewQuality::kWeak, 1.0}};
    config.cluster_separation = 5.0;
    config.seed = 31;
    auto dataset = data::MakeGaussianMultiView(config);
    ASSERT_TRUE(dataset.ok());
    auto graphs = mvsc::BuildGraphs(*dataset);
    ASSERT_TRUE(graphs.ok());

    mvsc::UnifiedOptions options;
    options.num_clusters = shape.c;
    options.seed = 11;

    options.block_lanczos = la::EigensolveMode::kForceBlock;
    StatusOr<mvsc::UnifiedResult> block =
        mvsc::UnifiedMVSC(options).Run(*graphs);
    ASSERT_TRUE(block.ok()) << block.status().ToString();

    options.block_lanczos = la::EigensolveMode::kForceSingle;
    StatusOr<mvsc::UnifiedResult> single =
        mvsc::UnifiedMVSC(options).Run(*graphs);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    StatusOr<double> ari =
        eval::AdjustedRandIndex(block->labels, single->labels);
    ASSERT_TRUE(ari.ok());
    EXPECT_DOUBLE_EQ(*ari, 1.0)
        << "paths diverged at n=" << shape.n << " c=" << shape.c;
  }
}

}  // namespace
}  // namespace umvsc
