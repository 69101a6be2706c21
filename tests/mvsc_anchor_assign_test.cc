#include "mvsc/anchor_assign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/anchors.h"
#include "graph/distance.h"
#include "la/gemm_kernel.h"
#include "la/matrix.h"
#include "la/ops.h"

namespace umvsc::mvsc::assign {
namespace {

using graph::PackedRows;
using graph::PackRows;
using graph::RowSquaredNorm;
using graph::SelectAnchorRow;
using graph::SquaredFromDot;

std::vector<double> RandomDoubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Uniform() * 2.0 - 1.0;
  return out;
}

// The dot of a one-row call against packed anchors: a zero-initialized
// one-row GemmAdd against PackRows' panel, which runs the kernel's
// 1×16 register route.
std::vector<double> OneRowPackedDots(const std::vector<double>& x,
                                     const la::Matrix& anchors) {
  const PackedRows panel = PackRows(anchors);
  std::vector<double> dots(anchors.rows(), 0.0);
  la::kernel::GemmAdd({x.data(), anchors.cols(), false}, panel.packed,
                      dots.data(), anchors.rows(), 0, 1);
  return dots;
}

la::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  la::Matrix out(rows, cols);
  const std::vector<double> values = RandomDoubles(rows * cols, seed);
  std::copy(values.begin(), values.end(), out.data());
  return out;
}

// The keystone pin: a one-row call's dots must reproduce, bit for bit, the
// elements a taller GemmAdd (4×8 register tiles, B packed per call) gives
// the same row — at EVERY inner dimension, below, at and across the kc
// block edge. This is what lets Assign(1) and Assign(256) agree.
TEST(AnchorAssignTest, OneRowPackedDotEqualsAGemmElement) {
  constexpr std::size_t kKc = la::kernel::kKc;
  for (std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{100},
                        kKc - 1, kKc, kKc + 1, std::size_t{1000},
                        3 * kKc + 17}) {
    const std::size_t m = 11, rows = 5, row = 2;
    const la::Matrix anchors = RandomMatrix(m, k, 77 + k);
    const la::Matrix x = RandomMatrix(rows, k, 11 + k);
    std::vector<double> tall(rows * m, 0.0);
    la::kernel::GemmAdd(m, k, {x.data(), k, false}, {anchors.data(), k, true},
                        tall.data(), m, 0, rows);
    const std::vector<double> one = OneRowPackedDots(
        std::vector<double>(x.RowPtr(row), x.RowPtr(row) + k), anchors);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(one[j], tall[row * m + j]) << "k = " << k << " anchor " << j;
    }
  }
}

TEST(AnchorAssignTest, OneRowPackedDotEqualsPlainDotBelowTheBlockEdge) {
  // Inside one kc block the grid degenerates to the plain ascending dot —
  // which is why the anchor rows of every view with d <= la::kernel::kKc
  // are bitwise those of the scalar-panel builder the graph layer used
  // before (pinned in graph_anchors_test).
  for (std::size_t k : {std::size_t{200}, la::kernel::kKc}) {
    const std::vector<double> x = RandomDoubles(k, 5);
    const la::Matrix anchors = RandomMatrix(3, k, 6);
    const std::vector<double> one = OneRowPackedDots(x, anchors);
    for (std::size_t j = 0; j < anchors.rows(); ++j) {
      const double* y = anchors.RowPtr(j);
      double plain = 0.0;
      for (std::size_t p = 0; p < k; ++p) plain += x[p] * y[p];
      EXPECT_EQ(one[j], plain) << "k = " << k << " anchor " << j;
    }
  }
}

TEST(AnchorAssignTest, BlockedVecMatAddEqualsAMatMulRow) {
  for (std::size_t p :
       {std::size_t{3}, std::size_t{60}, la::kernel::kKc + 33}) {
    const std::size_t c = 7;
    const std::vector<double> u = RandomDoubles(p, 21 + p);
    la::Matrix a(p, c);
    const std::vector<double> av = RandomDoubles(p * c, 22 + p);
    std::copy(av.begin(), av.end(), a.data());

    la::Matrix u_mat(1, p);
    std::copy(u.begin(), u.end(), u_mat.data());
    const la::Matrix expected = la::MatMul(u_mat, a);

    std::vector<double> out(c, 0.0);
    BlockedVecMatAdd(u.data(), a, out.data());
    for (std::size_t j = 0; j < c; ++j) {
      EXPECT_EQ(out[j], expected(0, j)) << "p = " << p << " col " << j;
    }
  }
}

// Reference re-implementation of the anchor row rule,
// written the straightforward way: full argsort by (distance, index),
// bandwidth from the s-th nearest, Gaussian weights in rank order,
// normalize, emit in ascending anchor order.
void ReferenceRow(const std::vector<double>& d2, std::size_t s,
                  std::vector<std::size_t>* cols,
                  std::vector<double>* weights) {
  std::vector<std::size_t> order(d2.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return d2[a] < d2[b]; });
  order.resize(s);
  const double sigma2 = std::max(d2[order[s - 1]], 1e-300);
  std::vector<double> w(s);
  double sum = 0.0;
  for (std::size_t r = 0; r < s; ++r) {
    w[r] = std::exp(-d2[order[r]] / sigma2);
    sum += w[r];
  }
  // Multiply by the reciprocal, as graph::SelectAnchorRow does — a divide
  // would differ in the last bit.
  const double inv = 1.0 / sum;
  for (std::size_t r = 0; r < s; ++r) w[r] *= inv;
  std::vector<std::size_t> rank(s);
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  std::sort(rank.begin(), rank.end(),
            [&](std::size_t a, std::size_t b) { return order[a] < order[b]; });
  cols->clear();
  weights->clear();
  for (std::size_t r : rank) {
    cols->push_back(order[r]);
    weights->push_back(w[r]);
  }
}

TEST(AnchorAssignTest, SelectAnchorRowMatchesTheReferenceRule) {
  Rng rng(99);
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const std::size_t m = 5 + trial % 40;
    const std::size_t s = 1 + trial % std::min<std::size_t>(m, 8);
    std::vector<double> d2(m);
    for (double& v : d2) {
      // Quantized distances so exact ties happen often.
      v = std::floor(rng.Uniform() * 8.0) * 0.25;
    }
    std::vector<std::size_t> cols(s), ref_cols;
    std::vector<double> weights(s), ref_weights;
    SelectAnchorRow(d2.data(), m, s, cols.data(), weights.data());
    ReferenceRow(d2, s, &ref_cols, &ref_weights);
    for (std::size_t r = 0; r < s; ++r) {
      EXPECT_EQ(cols[r], ref_cols[r]) << "trial " << trial << " slot " << r;
      EXPECT_EQ(weights[r], ref_weights[r])
          << "trial " << trial << " slot " << r;
    }
    // Structural invariants: ascending columns, normalized mass.
    double sum = 0.0;
    for (std::size_t r = 0; r < s; ++r) {
      if (r > 0) EXPECT_LT(cols[r - 1], cols[r]);
      sum += weights[r];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AnchorAssignTest, SelectAnchorRowTiesKeepTheSmallerIndex) {
  const std::vector<double> d2 = {2.0, 1.0, 1.0, 1.0, 3.0};
  std::vector<std::size_t> cols(2);
  std::vector<double> weights(2);
  SelectAnchorRow(d2.data(), d2.size(), 2, cols.data(), weights.data());
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 2u);
  // Both selected distances equal the bandwidth → equal weights of 1/2.
  EXPECT_DOUBLE_EQ(weights[0], 0.5);
  EXPECT_DOUBLE_EQ(weights[1], 0.5);
}

TEST(AnchorAssignTest, RowSquaredNormIsTheAscendingSum) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_EQ(RowSquaredNorm(x.data(), x.size()), (1.0 + 4.0) + 9.0);
}

TEST(AnchorAssignTest, RowArgMaxTiesKeepTheSmallerIndex) {
  const std::vector<double> scores = {0.5, 2.0, 2.0, -1.0};
  EXPECT_EQ(RowArgMax(scores.data(), scores.size()), 1u);
  const std::vector<double> flat = {3.0, 3.0, 3.0};
  EXPECT_EQ(RowArgMax(flat.data(), flat.size()), 0u);
}

TEST(AnchorAssignTest, SquaredFromDotClampsAtZero) {
  EXPECT_EQ(SquaredFromDot(1.0, 1.0, 1.0 + 1e-18), 0.0);
  EXPECT_EQ(SquaredFromDot(4.0, 1.0, 1.0), 3.0);
}

// The driver's two register routes over the packed anchors — the 1×16
// kernel for a one-row call, 4×8 tiles for a taller tile — must give every
// row the same anchor columns, weights and coordinates bit for bit, below
// and past the kc block edge.
TEST(AnchorAssignTest, AssignRowsGivesEachRowTheSameBitsAtEveryTileHeight) {
  for (std::size_t d : {std::size_t{20}, la::kernel::kKc + 44}) {
    const std::size_t m = 24, k = 5, s = 4, rows = 9;
    AnchorViewModel view;
    view.anchors = la::Matrix(m, d);
    view.anchor_map = la::Matrix(m, k);
    const std::vector<double> a = RandomDoubles(m * d, 31 + d);
    const std::vector<double> map = RandomDoubles(m * k, 32 + d);
    std::copy(a.begin(), a.end(), view.anchors.data());
    std::copy(map.begin(), map.end(), view.anchor_map.data());
    view.feature_means = la::Vector(d, 0.1);
    view.feature_inv_stds = la::Vector(d, 2.0);
    const PackedRows panel = PackRows(view.anchors);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(panel.sq_norms[j], RowSquaredNorm(view.anchors.RowPtr(j), d));
    }
    const std::vector<double> raw = RandomDoubles(rows * d, 33 + d);

    std::vector<std::size_t> cols(rows * s);
    std::vector<double> weights(rows * s), u(rows * k);
    AssignRows(view, panel, s, raw.data(), rows, cols.data(), weights.data(),
               u.data(), k);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<std::size_t> one_cols(s);
      std::vector<double> one_weights(s), one_u(k);
      AssignRows(view, panel, s, raw.data() + i * d, 1, one_cols.data(),
                 one_weights.data(), one_u.data(), k);
      for (std::size_t r = 0; r < s; ++r) {
        EXPECT_EQ(one_cols[r], cols[i * s + r]) << "d " << d << " row " << i;
        EXPECT_EQ(one_weights[r], weights[i * s + r])
            << "d " << d << " row " << i;
      }
      for (std::size_t t = 0; t < k; ++t) {
        EXPECT_EQ(one_u[t], u[i * k + t]) << "d " << d << " row " << i;
      }
    }
  }
}

// Training, serving and streaming rows come from one kernel
// (graph::AnchorRowTile), so BuildAnchorAffinity's rows and AssignRows' rows
// of the same points agree bit for bit at every feature dimension — below,
// at and past the kc block edge — at every training tile height and thread
// count. Zero means and unit inverse stds make standardization the
// identity, so both sides see the same standardized rows.
TEST(AnchorAssignTest, TrainingAndServingRowsAgreeBitwiseAtEveryDimension) {
  const std::size_t n = 150, m = 24, s = 5, k = 3;
  for (std::size_t d : {std::size_t{1}, std::size_t{8}, std::size_t{255},
                        std::size_t{256}, std::size_t{257}, std::size_t{300},
                        std::size_t{1024}}) {
    SCOPED_TRACE(::testing::Message() << "d=" << d);
    const la::Matrix x = RandomMatrix(n, d, 40 + d);
    graph::AnchorOptions selection;
    selection.num_anchors = m;
    StatusOr<la::Matrix> anchors = graph::SelectAnchors(x, selection);
    ASSERT_TRUE(anchors.ok());
    AnchorViewModel view;
    view.anchors = *anchors;
    view.anchor_map = RandomMatrix(m, k, 41 + d);
    view.feature_means = la::Vector(d, 0.0);
    view.feature_inv_stds = la::Vector(d, 1.0);
    const PackedRows panel = PackRows(view.anchors);
    for (std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ScopedNumThreads scoped(threads);
      std::vector<std::size_t> cols(n * s);
      std::vector<double> weights(n * s), u(n * k);
      ForEachTile(n, [&](std::size_t begin, std::size_t end) {
        AssignRows(view, panel, s, x.RowPtr(begin), end - begin,
                   cols.data() + begin * s, weights.data() + begin * s,
                   u.data() + begin * k, k);
      });
      for (std::size_t tile :
           {std::size_t{1}, std::size_t{64}, std::size_t{128}}) {
        graph::AnchorGraphOptions options;
        options.anchor_neighbors = s;
        options.tile_rows = tile;
        StatusOr<la::CsrMatrix> z =
            graph::BuildAnchorAffinity(x, view.anchors, options);
        ASSERT_TRUE(z.ok());
        ASSERT_EQ(z->values().size(), n * s);
        EXPECT_EQ(std::memcmp(z->col_indices().data(), cols.data(),
                              n * s * sizeof(std::size_t)),
                  0)
            << "threads=" << threads << " tile=" << tile;
        EXPECT_EQ(std::memcmp(z->values().data(), weights.data(),
                              n * s * sizeof(double)),
                  0)
            << "threads=" << threads << " tile=" << tile;
      }
    }
  }
}

}  // namespace
}  // namespace umvsc::mvsc::assign
