#include "mvsc/anchor_assign.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "data/standardize.h"
#include "la/gemm_kernel.h"

namespace umvsc::mvsc::assign {

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

void AssignRows(const AnchorViewModel& view, const graph::PackedRows& anchors,
                std::size_t s, const double* raw, std::size_t rows,
                std::size_t* cols, double* weights, double* u,
                std::size_t u_stride) {
  const std::size_t d = view.anchors.cols();
  const std::size_t k = view.anchor_map.cols();
  // Per-thread scratch; capacity sticks across calls.
  static thread_local std::vector<double> xs;
  xs.resize(rows * d);
  for (std::size_t i = 0; i < rows; ++i) {
    data::ApplyStandardizationRow(raw + i * d, d, view.feature_means,
                                  view.feature_inv_stds, xs.data() + i * d);
  }
  graph::AnchorRowTile(anchors, s, xs.data(), rows, cols, weights);
  for (std::size_t i = 0; i < rows; ++i) {
    // u = z·anchor_map in ascending-anchor order.
    const std::size_t* row_cols = cols + i * s;
    const double* row_weights = weights + i * s;
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
