// Equivalence tests for the tiled O(n·k)-memory graph construction: the
// feature-direct builders must emit CSR graphs BYTE-identical to the dense
// distance → kernel → sparsify pipeline, at every feature dimension and
// every thread count, and the selection core must not depend on its tile
// height. Byte-identical means equal row offsets, equal column indices, and
// bit-for-bit equal double values (memcmp, not tolerance).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "graph/knn_graph.h"
#include "graph/tiled_select.h"

namespace umvsc::graph {
namespace {

la::Matrix RandomFeatures(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Gaussian((i % 3) * 2.5, 1.0);
    }
  }
  return x;
}

void ExpectBitwiseEqual(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_offsets(), b.row_offsets());
  ASSERT_EQ(a.col_indices(), b.col_indices());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

constexpr KnnSymmetrization kAllSymmetrizations[] = {
    KnnSymmetrization::kUnion, KnnSymmetrization::kMutual,
    KnnSymmetrization::kAverage};

// The dense pipeline over a given squared-distance matrix.
la::CsrMatrix DenseKnn(const la::Matrix& d2, std::size_t k,
                       KnnSymmetrization sym) {
  StatusOr<la::Matrix> kernel = SelfTuningKernel(d2, k);
  EXPECT_TRUE(kernel.ok());
  StatusOr<la::CsrMatrix> w = BuildKnnGraph(*kernel, k, sym);
  EXPECT_TRUE(w.ok());
  return *w;
}

la::CsrMatrix DenseAdaptive(const la::Matrix& d2, std::size_t k) {
  StatusOr<la::CsrMatrix> w = AdaptiveNeighborGraph(d2, k);
  EXPECT_TRUE(w.ok());
  return *w;
}

// Checks both feature-direct builders (every symmetrization) against the
// dense pipeline over `d2`.
void ExpectBuildersMatchDense(const la::Matrix& x, const la::Matrix& d2,
                              std::size_t k) {
  for (KnnSymmetrization sym : kAllSymmetrizations) {
    SCOPED_TRACE(::testing::Message() << "sym=" << static_cast<int>(sym));
    StatusOr<la::CsrMatrix> tiled = BuildKnnGraphFromFeatures(x, k, sym);
    ASSERT_TRUE(tiled.ok());
    ExpectBitwiseEqual(DenseKnn(d2, k, sym), *tiled);
  }
  StatusOr<la::CsrMatrix> adaptive = AdaptiveNeighborGraphFromFeatures(x, k);
  ASSERT_TRUE(adaptive.ok());
  ExpectBitwiseEqual(DenseAdaptive(d2, k), *adaptive);
}

namespace reference {

// The squared-distance matrix every feature-direct builder filled before
// the shared tile kernel: one scalar dot chain in ascending feature order
// per pair, clamped Gram expansion with RowSquaredNorms, exact zero
// diagonal. With the dense wrappers it reproduces those builders bit for
// bit (the selection, kernel expression and symmetrization are shared).
la::Matrix ScalarPanelSquaredDistances(const la::Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const la::Vector sq_norms = RowSquaredNorms(x);
  la::Matrix d2(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double s = 0.0;
      for (std::size_t p = 0; p < d; ++p) s += x(i, p) * x(j, p);
      d2(i, j) = std::max(0.0, sq_norms[i] + sq_norms[j] - 2.0 * s);
    }
  }
  return d2;
}

}  // namespace reference

// The builders and the dense pipeline share one distance kernel, so they
// agree bitwise below, at and past the kc block edge (256) of the GEMM's
// accumulation grid, at every thread count. 300 rows make three 128-row
// tiles, so several threads own tiles.
TEST(TiledGraphTest, FromFeaturesMatchesDensePipelineAtEveryDimension) {
  const std::size_t n = 300, k = 7;
  for (std::size_t d : {std::size_t{4}, std::size_t{255}, std::size_t{256},
                        std::size_t{257}, std::size_t{300},
                        std::size_t{1302}}) {
    const la::Matrix x = RandomFeatures(n, d, 7 + d);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " threads="
                                        << threads);
      ScopedNumThreads scoped(threads);
      ExpectBuildersMatchDense(x, PairwiseSquaredDistances(x), k);
    }
  }
}

// Pin: wherever a view has d <= 256 the kernel's dot is the plain ascending
// chain, so the builders keep the bits of the scalar-panel builders they
// replaced — Gaussian and integer-valued features (the latter tie distances
// exactly, exercising the smaller-index tie rule).
TEST(TiledGraphTest, MatchesTheScalarPanelBuildersBitwise) {
  const std::size_t n = 150, k = 5;
  for (std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{64}, std::size_t{255}, std::size_t{256}}) {
    for (bool tied : {false, true}) {
      la::Matrix x = RandomFeatures(n, d, 90 + d);
      if (tied) {
        for (std::size_t i = 0; i < n * d; ++i) {
          x.data()[i] = std::floor(std::fabs(x.data()[i])) - 2.0;
        }
      }
      const la::Matrix d2 = reference::ScalarPanelSquaredDistances(x);
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE(::testing::Message() << "d=" << d << " tied=" << tied
                                          << " threads=" << threads);
        ScopedNumThreads scoped(threads);
        ExpectBuildersMatchDense(x, d2, k);
      }
    }
  }
}

// The selection core's tile grid is a pure function of (n, tile_rows) and
// every row's selection a pure function of its panel row, so the tile
// height never changes the selection.
TEST(TiledGraphTest, TileSizeDoesNotChangeTheSelection) {
  const la::Matrix x = RandomFeatures(53, 3, 11);
  const PackedRows packed = PackRows(x);
  const internal::PanelFiller fill = [&](std::size_t r0, std::size_t r1,
                                         double* panel) {
    SquaredDistanceTile(packed, x.RowPtr(r0), r1 - r0, panel);
  };
  for (bool largest : {false, true}) {
    const internal::DirectedSelection reference =
        internal::TiledSelect(53, 4, largest, internal::kTileRows, fill,
                              /*negative_seen=*/nullptr);
    for (std::size_t tile : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                             std::size_t{64}, std::size_t{4096}}) {
      const internal::DirectedSelection got = internal::TiledSelect(
          53, 4, largest, tile, fill, /*negative_seen=*/nullptr);
      EXPECT_EQ(got.counts, reference.counts) << "tile=" << tile;
      EXPECT_EQ(got.cols, reference.cols) << "tile=" << tile;
      EXPECT_EQ(std::memcmp(got.vals.data(), reference.vals.data(),
                            got.vals.size() * sizeof(double)),
                0)
          << "tile=" << tile;
    }
  }
}

TEST(TiledGraphTest, ThreadCountDoesNotChangeTheGraph) {
  la::Matrix x = RandomFeatures(300, 5, 13);
  la::CsrMatrix reference;
  {
    ScopedNumThreads serial(1);
    StatusOr<la::CsrMatrix> got = BuildKnnGraphFromFeatures(x, 6);
    ASSERT_TRUE(got.ok());
    reference = *got;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<la::CsrMatrix> got = BuildKnnGraphFromFeatures(x, 6);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(reference, *got);
  }
}

TEST(TiledGraphTest, DenseWrapperMatchesAcrossThreads) {
  la::Matrix x = RandomFeatures(300, 3, 17);
  la::Matrix d2 = PairwiseSquaredDistances(x);
  StatusOr<la::Matrix> kernel = SelfTuningKernel(d2, 4);
  ASSERT_TRUE(kernel.ok());
  StatusOr<la::CsrMatrix> reference = BuildKnnGraph(*kernel, 4);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<la::CsrMatrix> got = BuildKnnGraph(*kernel, 4);
    ASSERT_TRUE(got.ok());
    ExpectBitwiseEqual(*reference, *got);
  }
}

TEST(TiledGraphTest, SelfTuningScalesMatchDenseDefinition) {
  const std::size_t k = 5;
  for (std::size_t d : {std::size_t{6}, std::size_t{300}}) {
    la::Matrix x = RandomFeatures(37, d, 23);
    la::Matrix d2 = PairwiseSquaredDistances(x);
    StatusOr<la::Vector> scales = SelfTuningScales(PackRows(x), x, k);
    ASSERT_TRUE(scales.ok());
    // Dense definition: σ_i = sqrt(k-th smallest squared distance to another
    // point), exactly as SelfTuningKernel extracts it.
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::vector<double> row;
      for (std::size_t j = 0; j < x.rows(); ++j) {
        if (j != i) row.push_back(d2(i, j));
      }
      std::nth_element(row.begin(), row.begin() + (k - 1), row.end());
      const double expected = std::sqrt(std::max(row[k - 1], 1e-300));
      EXPECT_EQ((*scales)[i], expected) << "d " << d << " row " << i;
    }
  }
}

TEST(TiledGraphTest, NegativeAffinityStillRejected) {
  la::Matrix affinity(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      affinity(i, j) = i == j ? 0.0 : 1.0;
    }
  }
  affinity(5, 2) = -0.25;
  StatusOr<la::CsrMatrix> w = BuildKnnGraph(affinity, 2);
  EXPECT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("nonnegative"), std::string::npos);
  // The check rides the selection pass, so every tile height sees it.
  for (std::size_t tile : {std::size_t{1}, std::size_t{4}, std::size_t{128}}) {
    bool negative = false;
    internal::TiledSelect(
        6, 2, /*largest=*/true, tile,
        [&](std::size_t r0, std::size_t r1, double* panel) {
          std::memcpy(panel, affinity.RowPtr(r0),
                      (r1 - r0) * 6 * sizeof(double));
        },
        &negative);
    EXPECT_TRUE(negative) << "tile=" << tile;
  }
}

}  // namespace
}  // namespace umvsc::graph
