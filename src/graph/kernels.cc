#include "graph/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/distance.h"
#include "graph/tiled_select.h"

namespace umvsc::graph {

StatusOr<la::Matrix> GaussianKernel(const la::Matrix& sq_dists, double sigma) {
  if (!sq_dists.IsSquare()) {
    return Status::InvalidArgument("GaussianKernel requires a square matrix");
  }
  if (sigma <= 0.0) {
    return Status::InvalidArgument("Gaussian bandwidth must be positive");
  }
  const std::size_t n = sq_dists.rows();
  const double inv = 1.0 / (2.0 * sigma * sigma);
  la::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w(i, j) = i == j ? 0.0 : std::exp(-sq_dists(i, j) * inv);
    }
  }
  return w;
}

StatusOr<la::Matrix> SelfTuningKernel(const la::Matrix& sq_dists,
                                      std::size_t k) {
  if (!sq_dists.IsSquare()) {
    return Status::InvalidArgument("SelfTuningKernel requires a square matrix");
  }
  const std::size_t n = sq_dists.rows();
  if (k < 1 || k >= n) {
    return Status::InvalidArgument("SelfTuningKernel requires 1 <= k < n");
  }
  // σ_i = distance from i to its k-th nearest *other* point.
  la::Vector scale(n);
  std::vector<double> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(sq_dists(i, j));
    }
    std::nth_element(row.begin(), row.begin() + (k - 1), row.end());
    scale[i] = std::sqrt(std::max(row[k - 1], 1e-300));
  }
  la::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      w(i, j) = std::exp(-sq_dists(i, j) / (scale[i] * scale[j]));
    }
  }
  return w;
}

StatusOr<la::Vector> SelfTuningScales(const PackedRows& packed,
                                      const la::Matrix& x, std::size_t k) {
  const std::size_t n = x.rows();
  if (k < 1 || k >= n) {
    return Status::InvalidArgument("SelfTuningScales requires 1 <= k < n");
  }
  // k smallest squared distances per row; the worst accepted value (rank
  // k − 1) is exactly the k-th order statistic the dense SelfTuningKernel
  // extracts with nth_element — same value, O(n·k) memory.
  internal::DirectedSelection nearest = internal::TiledSelect(
      n, k, /*largest=*/false, internal::kTileRows,
      [&](std::size_t r0, std::size_t r1, double* panel) {
        SquaredDistanceTile(packed, x.RowPtr(r0), r1 - r0, panel);
      },
      /*negative_seen=*/nullptr);
  la::Vector scale(n);
  for (std::size_t i = 0; i < n; ++i) {
    scale[i] = std::sqrt(std::max(nearest.vals[i * k + (k - 1)], 1e-300));
  }
  return scale;
}

StatusOr<double> MedianHeuristicSigma(const la::Matrix& sq_dists) {
  if (!sq_dists.IsSquare()) {
    return Status::InvalidArgument("MedianHeuristicSigma requires square input");
  }
  std::vector<double> dists;
  const std::size_t n = sq_dists.rows();
  dists.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (sq_dists(i, j) > 0.0) dists.push_back(std::sqrt(sq_dists(i, j)));
    }
  }
  if (dists.empty()) {
    return Status::InvalidArgument("all pairwise distances are zero");
  }
  const std::size_t mid = dists.size() / 2;
  std::nth_element(dists.begin(), dists.begin() + mid, dists.end());
  return dists[mid];
}

}  // namespace umvsc::graph
