#ifndef UMVSC_GRAPH_KERNELS_H_
#define UMVSC_GRAPH_KERNELS_H_

#include <cstddef>

#include "common/status.h"
#include "graph/distance.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace umvsc::graph {

/// Gaussian (RBF) affinity from squared distances:
/// W_ij = exp(−D²_ij / (2σ²)), diagonal forced to 0 (no self-loop), as is
/// conventional for spectral clustering graphs. Requires σ > 0.
StatusOr<la::Matrix> GaussianKernel(const la::Matrix& sq_dists, double sigma);

/// Self-tuning affinity of Zelnik-Manor & Perona: per-point scales σ_i set
/// to the distance to the k-th nearest neighbor, W_ij = exp(−D²_ij/(σ_i·σ_j)).
/// Robust to clusters of different densities — the default graph builder for
/// the multi-view benchmarks. Requires 1 <= k < n.
StatusOr<la::Matrix> SelfTuningKernel(const la::Matrix& sq_dists,
                                      std::size_t k);

/// The self-tuning bandwidths σ_i (distance from point i to its k-th
/// nearest other point) computed straight from the n × d feature matrix in
/// O(n·k + n·d) memory: SquaredDistanceTile against `packed` =
/// PackRows(x) fills fixed row tiles, and each row feeds a bounded
/// k-smallest selector. σ_i is bitwise identical to what SelfTuningKernel
/// derives from PairwiseSquaredDistances(x) at every feature dimension
/// (graph_tiled_test SelfTuningScalesMatchDenseDefinition pins d = 300).
/// Requires 1 <= k < n. Tile-parallel and bitwise deterministic across
/// thread counts.
StatusOr<la::Vector> SelfTuningScales(const PackedRows& packed,
                                      const la::Matrix& x, std::size_t k);

/// The median heuristic bandwidth: σ = median of nonzero pairwise distances.
/// Returns an error when every pairwise distance is zero.
StatusOr<double> MedianHeuristicSigma(const la::Matrix& sq_dists);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_KERNELS_H_
