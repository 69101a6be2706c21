// End-to-end determinism contract (docs/THREADING.md): every parallelized
// kernel, and full UnifiedMVSC and anchor solves on top of them, must
// produce BITWISE identical output at 1, 2, and 8 threads from the same
// seed.

#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "graph/distance.h"
#include "graph/knn_graph.h"
#include "gtest/gtest.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "la/sparse.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"

namespace umvsc {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

la::Matrix DeterministicMatrix(std::size_t rows, std::size_t cols,
                               double phase) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = std::sin(0.7 * static_cast<double>(i) +
                         1.3 * static_cast<double>(j) + phase) +
                0.01 * static_cast<double>(i + j);
    }
  }
  return m;
}

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ParallelDeterminismTest, MatMulFamilyIsBitwiseIdenticalAcrossThreads) {
  const la::Matrix a = DeterministicMatrix(131, 67, 0.0);
  const la::Matrix b = DeterministicMatrix(67, 89, 1.0);
  const la::Matrix bt = DeterministicMatrix(89, 67, 2.0);
  ScopedNumThreads baseline(1);
  const la::Matrix ref_mul = la::MatMul(a, b);
  const la::Matrix ref_tmul = la::MatTMul(a, DeterministicMatrix(131, 40, 3.0));
  const la::Matrix ref_mult = la::MatMulT(a, bt);
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    EXPECT_TRUE(BitwiseEqual(ref_mul, la::MatMul(a, b))) << threads;
    EXPECT_TRUE(BitwiseEqual(
        ref_tmul, la::MatTMul(a, DeterministicMatrix(131, 40, 3.0))))
        << threads;
    EXPECT_TRUE(BitwiseEqual(ref_mult, la::MatMulT(a, bt))) << threads;
  }
}

TEST(ParallelDeterminismTest, GramKernelsAreBitwiseIdenticalAcrossThreads) {
  // Odd sizes so the 4x8 register tiles and the reduce-chunk grids all hit
  // their edge paths.
  const la::Matrix a = DeterministicMatrix(301, 23, 0.0);
  ScopedNumThreads baseline(1);
  const la::Matrix ref_gram = la::Gram(a);
  const la::Matrix ref_outer = la::OuterGram(DeterministicMatrix(97, 13, 1.0));
  // Gram's chunked reduction computes both triangles with identical
  // arithmetic, so the result must be bitwise symmetric.
  for (std::size_t i = 0; i < ref_gram.rows(); ++i) {
    for (std::size_t j = i + 1; j < ref_gram.cols(); ++j) {
      ASSERT_EQ(ref_gram(i, j), ref_gram(j, i)) << i << "," << j;
    }
  }
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    EXPECT_TRUE(BitwiseEqual(ref_gram, la::Gram(a))) << threads;
    EXPECT_TRUE(BitwiseEqual(ref_outer,
                             la::OuterGram(DeterministicMatrix(97, 13, 1.0))))
        << threads;
  }
}

TEST(ParallelDeterminismTest,
     VectorizedStragglersAreBitwiseIdenticalAcrossThreads) {
  const la::Matrix a = DeterministicMatrix(157, 43, 0.0);
  const la::Matrix b = DeterministicMatrix(157, 43, 1.0);
  la::Vector x(43);
  for (std::size_t i = 0; i < 43; ++i) x[i] = std::sin(0.3 * i) + 0.5;
  ScopedNumThreads baseline(1);
  const la::Vector ref_mv = la::MatVec(a, x);
  const la::Matrix ref_t = la::Transpose(a);
  const la::Matrix ref_h = la::Hadamard(a, b);
  la::Matrix ref_add = a;
  ref_add.Add(b, -0.25);
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    const la::Vector mv = la::MatVec(a, x);
    ASSERT_EQ(mv.size(), ref_mv.size());
    for (std::size_t i = 0; i < mv.size(); ++i) {
      EXPECT_EQ(ref_mv[i], mv[i]) << threads << " row " << i;
    }
    EXPECT_TRUE(BitwiseEqual(ref_t, la::Transpose(a))) << threads;
    EXPECT_TRUE(BitwiseEqual(ref_h, la::Hadamard(a, b))) << threads;
    la::Matrix add = a;
    add.Add(b, -0.25);
    EXPECT_TRUE(BitwiseEqual(ref_add, add)) << threads;
  }
}

TEST(ParallelDeterminismTest, QuadraticTraceIsBitwiseIdenticalAcrossThreads) {
  la::Matrix l = la::OuterGram(DeterministicMatrix(90, 12, 0.5));
  const la::Matrix f = DeterministicMatrix(90, 5, 1.5);
  ScopedNumThreads baseline(1);
  const double ref = la::QuadraticTrace(l, f);
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    EXPECT_EQ(ref, la::QuadraticTrace(l, f)) << threads;
  }
}

TEST(ParallelDeterminismTest,
     PairwiseSquaredDistancesIsBitwiseIdenticalAcrossThreads) {
  const la::Matrix x = DeterministicMatrix(153, 24, 0.25);
  ScopedNumThreads baseline(1);
  const la::Matrix ref = graph::PairwiseSquaredDistances(x);
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    EXPECT_TRUE(BitwiseEqual(ref, graph::PairwiseSquaredDistances(x)))
        << threads;
  }
}

TEST(ParallelDeterminismTest, KnnGraphIsIdenticalAcrossThreads) {
  const la::Matrix x = DeterministicMatrix(80, 10, 0.75);
  const la::Matrix sq = graph::PairwiseSquaredDistances(x);
  // Turn distances into a positive affinity for the kNN builder.
  la::Matrix affinity(sq.rows(), sq.cols());
  for (std::size_t i = 0; i < sq.size(); ++i) {
    affinity.data()[i] = 1.0 / (1.0 + sq.data()[i]);
  }
  for (std::size_t i = 0; i < sq.rows(); ++i) affinity(i, i) = 0.0;

  ScopedNumThreads baseline(1);
  const auto ref = graph::BuildKnnGraph(affinity, 7);
  ASSERT_TRUE(ref.ok());
  const auto ref_can = graph::AdaptiveNeighborGraph(sq, 7);
  ASSERT_TRUE(ref_can.ok());
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    const auto got = graph::BuildKnnGraph(affinity, 7);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ref->col_indices(), got->col_indices()) << threads;
    EXPECT_EQ(ref->row_offsets(), got->row_offsets()) << threads;
    EXPECT_EQ(ref->values(), got->values()) << threads;
    const auto got_can = graph::AdaptiveNeighborGraph(sq, 7);
    ASSERT_TRUE(got_can.ok());
    EXPECT_EQ(ref_can->col_indices(), got_can->col_indices()) << threads;
    EXPECT_EQ(ref_can->row_offsets(), got_can->row_offsets()) << threads;
    EXPECT_EQ(ref_can->values(), got_can->values()) << threads;
  }
}

// Sparse kernels: the row-parallel SpMV and the cache-blocked SpMM must be
// bitwise identical across thread counts, and the SpMM must equal b
// independent per-column SpMVs exactly (same per-row accumulation order).
TEST(ParallelDeterminismTest, SparseMultiplyIsBitwiseIdenticalAcrossThreads) {
  la::Matrix dense = DeterministicMatrix(140, 140, 0.1);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense.data()[i]) < 0.9) dense.data()[i] = 0.0;  // sparsify
  }
  const la::CsrMatrix a = la::CsrMatrix::FromDense(dense);
  const la::Matrix x = DeterministicMatrix(140, 70, 0.4);  // spans 2 panels

  ScopedNumThreads baseline(1);
  la::Matrix ref(140, 70);
  a.MultiplyInto(x, ref, 1.25);
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    la::Matrix got(140, 70);
    a.MultiplyInto(x, got, 1.25);
    EXPECT_TRUE(BitwiseEqual(ref, got)) << threads;
    // Column-by-column SpMV agreement, under the same thread count.
    la::Matrix by_column(140, 70);
    for (std::size_t j = 0; j < 70; ++j) {
      la::Vector xj = x.Col(j);
      la::Vector yj(140);
      a.MultiplyInto(xj, yj, 1.25);
      by_column.SetCol(j, yj);
    }
    EXPECT_TRUE(BitwiseEqual(ref, by_column)) << threads;
  }
}

TEST(ParallelDeterminismTest, BlockLanczosIsBitwiseIdenticalAcrossThreads) {
  la::Matrix dense = DeterministicMatrix(96, 96, 0.2);
  la::Matrix sym(96, 96);
  for (std::size_t i = 0; i < 96; ++i) {
    for (std::size_t j = 0; j < 96; ++j) {
      sym(i, j) = 0.5 * (dense(i, j) + dense(j, i));
    }
  }
  const la::CsrMatrix a = la::CsrMatrix::FromDense(sym);
  ScopedNumThreads baseline(1);
  const auto ref = la::BlockLanczosLargest(a, 6);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (std::size_t threads : kThreadCounts) {
    ScopedNumThreads scope(threads);
    const auto got = la::BlockLanczosLargest(a, 6);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(ref->eigenvalues[j], got->eigenvalues[j]) << threads;
    }
    EXPECT_TRUE(BitwiseEqual(ref->eigenvectors, got->eigenvectors)) << threads;
  }
}

// The acceptance test of the threading work: a FULL pipeline — synthetic
// data, per-view graph construction, and the unified solver — replayed at
// 1, 2, and 8 threads from one seed must agree bit for bit on the labels,
// the objective trace, the view weights, and the embedding.
TEST(ParallelDeterminismTest, FullUnifiedRunIsBitwiseIdenticalAcrossThreads) {
  data::MultiViewConfig config;
  config.num_samples = 120;
  config.num_clusters = 3;
  config.views = {{12, data::ViewQuality::kInformative, 0.6},
                  {8, data::ViewQuality::kWeak, 1.0},
                  {10, data::ViewQuality::kNoisy, 1.0}};
  config.seed = 7;

  auto run_at = [&](std::size_t threads) {
    ScopedNumThreads scope(threads);
    StatusOr<data::MultiViewDataset> dataset =
        data::MakeGaussianMultiView(config);
    EXPECT_TRUE(dataset.ok());
    StatusOr<mvsc::MultiViewGraphs> graphs = mvsc::BuildGraphs(*dataset);
    EXPECT_TRUE(graphs.ok());
    mvsc::UnifiedOptions options;
    options.num_clusters = 3;
    options.seed = 11;
    StatusOr<mvsc::UnifiedResult> result =
        mvsc::UnifiedMVSC(options).Run(*graphs);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  };

  const mvsc::UnifiedResult ref = run_at(1);
  ASSERT_FALSE(ref.labels.empty());
  ASSERT_FALSE(ref.objective_trace.empty());
  for (std::size_t threads : kThreadCounts) {
    const mvsc::UnifiedResult got = run_at(threads);
    EXPECT_EQ(ref.labels, got.labels) << threads << " threads";
    EXPECT_EQ(ref.objective_trace, got.objective_trace)
        << threads << " threads";
    EXPECT_EQ(ref.warmup_trace, got.warmup_trace) << threads << " threads";
    EXPECT_EQ(ref.view_weights, got.view_weights) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(ref.embedding, got.embedding))
        << threads << " threads";
    EXPECT_EQ(ref.iterations, got.iterations) << threads << " threads";
  }
}


// The anchor path at a size where each rotation search fans its restarts
// out over the pool and every restart sweeps tens of thousands of rows in
// a per-thread workspace: labels, objective trace and iteration count must
// not see the thread count.
TEST(ParallelDeterminismTest, AnchorSolveIsBitwiseIdenticalAcrossThreads) {
  data::MultiViewConfig config;
  config.num_samples = 20000;
  config.num_clusters = 5;
  config.cluster_separation = 6.0;
  config.views = {{8, data::ViewQuality::kInformative, 1.0},
                  {6, data::ViewQuality::kInformative, 1.0}};
  config.seed = 23;
  StatusOr<data::MultiViewDataset> dataset =
      data::MakeGaussianMultiView(config);
  ASSERT_TRUE(dataset.ok());
  mvsc::UnifiedOptions options;
  options.num_clusters = 5;
  options.seed = 3;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 128;
  options.anchors.anchor_neighbors = 5;

  auto run_at = [&](std::size_t threads) {
    ScopedNumThreads scope(threads);
    StatusOr<mvsc::AnchorUnifiedResult> result =
        mvsc::SolveUnifiedAnchors(*dataset, options);
    EXPECT_TRUE(result.ok());
    return std::move(result->result);
  };

  const mvsc::UnifiedResult ref = run_at(1);
  ASSERT_EQ(ref.labels.size(), config.num_samples);
  ASSERT_FALSE(ref.objective_trace.empty());
  for (std::size_t threads : kThreadCounts) {
    const mvsc::UnifiedResult got = run_at(threads);
    EXPECT_EQ(ref.labels, got.labels) << threads << " threads";
    EXPECT_EQ(ref.objective_trace, got.objective_trace)
        << threads << " threads";
    EXPECT_EQ(ref.iterations, got.iterations) << threads << " threads";
  }
}

}  // namespace
}  // namespace umvsc
