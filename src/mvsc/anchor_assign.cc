#include "mvsc/anchor_assign.h"

#include <vector>

#include "common/parallel.h"
#include "data/standardize.h"
#include "graph/anchors.h"
#include "graph/distance.h"

namespace umvsc::mvsc::assign {

AnchorPanel PrepareAnchors(const la::Matrix& anchors) {
  AnchorPanel panel;
  panel.sq_norms = graph::RowSquaredNorms(anchors);
  panel.packed = la::kernel::PackB(anchors.rows(), anchors.cols(),
                                   {anchors.data(), anchors.cols(), true});
  return panel;
}

double RowSquaredNorm(const double* x, std::size_t k) {
  double s = 0.0;
  for (std::size_t p = 0; p < k; ++p) s += x[p] * x[p];
  return s;
}

void SelectAnchorRow(const double* d2, std::size_t m, std::size_t s,
                     std::size_t* cols, double* weights) {
  // Bounded s-best insertion; `weights` holds the kept squared distances in
  // rank (ascending-distance) order until they are turned into weights.
  // Strict comparisons on both the skip and the shift keep ties on the
  // smaller anchor index, matching graph::internal::BoundedTopK.
  std::size_t filled = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double v = d2[j];
    if (filled == s && v >= weights[s - 1]) continue;
    std::size_t q = filled < s ? filled : s - 1;
    while (q > 0 && weights[q - 1] > v) {
      weights[q] = weights[q - 1];
      cols[q] = cols[q - 1];
      --q;
    }
    weights[q] = v;
    cols[q] = j;
    if (filled < s) ++filled;
  }
  graph::WeightAnchorRow(s, cols, weights);
}

void BlockedVecMatAdd(const double* u, const la::Matrix& a, double* out) {
  const std::size_t p = a.rows();
  const std::size_t c = a.cols();
  for (std::size_t kk = 0; kk < p; kk += la::kernel::kKc) {
    const std::size_t kcb = std::min(la::kernel::kKc, p - kk);
    for (std::size_t j = 0; j < c; ++j) {
      double partial = 0.0;
      for (std::size_t q = 0; q < kcb; ++q) {
        partial += u[kk + q] * a(kk + q, j);
      }
      out[j] += partial;
    }
  }
}

std::size_t RowArgMax(const double* scores, std::size_t c) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < c; ++j) {
    if (scores[j] > scores[best]) best = j;
  }
  return best;
}

void ForEachTile(std::size_t rows,
                 const std::function<void(std::size_t, std::size_t)>& tile) {
  // ParallelFor hands each thread a run of whole tiles; walk it tile by
  // tile so scratch stays bounded by one tile.
  ParallelFor(0, rows, kAssignTileRows,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t t = begin; t < end; t += kAssignTileRows) {
                  tile(t, std::min(t + kAssignTileRows, end));
                }
              });
}

void AssignRows(const AnchorViewModel& view, const AnchorPanel& panel,
                std::size_t s, const double* raw, std::size_t rows,
                std::size_t* cols, double* weights, double* u,
                std::size_t u_stride) {
  const std::size_t d = view.anchors.cols();
  const std::size_t m = view.anchors.rows();
  const std::size_t k = view.anchor_map.cols();
  // Per-thread scratch; capacity sticks across calls.
  static thread_local std::vector<double> xs;
  static thread_local std::vector<double> d2;
  xs.resize(rows * d);
  d2.resize(rows * m);
  for (std::size_t i = 0; i < rows; ++i) {
    data::ApplyStandardizationRow(raw + i * d, d, view.feature_means,
                                  view.feature_inv_stds, xs.data() + i * d);
  }
  // The dot panel d2(i, j) = x_i·a_j against the anchors packed once per
  // model; the kernel picks its register tile by the row count.
  std::fill(d2.begin(), d2.end(), 0.0);
  la::kernel::GemmAdd({xs.data(), d, false}, panel.packed, d2.data(), m, 0,
                      rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double nx = RowSquaredNorm(xs.data() + i * d, d);
    double* row = d2.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      row[j] = SquaredFromDot(nx, panel.sq_norms[j], row[j]);
    }
    std::size_t* row_cols = cols + i * s;
    double* row_weights = weights + i * s;
    SelectAnchorRow(row, m, s, row_cols, row_weights);
    // u = z·anchor_map in ascending-anchor order.
    double* u_row = u + i * u_stride;
    std::fill(u_row, u_row + k, 0.0);
    for (std::size_t r = 0; r < s; ++r) {
      const double* map_row = view.anchor_map.RowPtr(row_cols[r]);
      const double w = row_weights[r];
      for (std::size_t t = 0; t < k; ++t) u_row[t] += w * map_row[t];
    }
  }
}

}  // namespace umvsc::mvsc::assign
