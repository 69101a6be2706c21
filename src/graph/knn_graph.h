#ifndef UMVSC_GRAPH_KNN_GRAPH_H_
#define UMVSC_GRAPH_KNN_GRAPH_H_

#include <cstddef>

#include "common/status.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace umvsc::graph {

/// How a directed kNN selection is turned into an undirected graph.
enum class KnnSymmetrization {
  kUnion,    ///< keep an edge if either endpoint selected it (max weight)
  kMutual,   ///< keep an edge only if both endpoints selected it (min weight)
  kAverage,  ///< (W + Wᵀ)/2 on the union of selections
};

/// Sparsifies a dense affinity matrix to the k strongest neighbors per node
/// and symmetrizes. Diagonal entries are ignored (no self-loops). Requires
/// a square nonnegative affinity and 1 <= k < n. A thin wrapper over the
/// tiled selection core (the panels read rows of `affinity` directly), so
/// it emits exactly the same graph as BuildKnnGraphFromFeatures does from
/// raw features. Ties in affinity resolve to the smaller column index.
/// Bitwise deterministic across thread counts.
StatusOr<la::CsrMatrix> BuildKnnGraph(
    const la::Matrix& affinity, std::size_t k,
    KnnSymmetrization symmetrization = KnnSymmetrization::kUnion);

/// The fused O(n·k)-memory construction: self-tuning kernel + kNN
/// sparsification straight from the n × d feature matrix, without ever
/// materializing an n × n distance, kernel, or selection-mask matrix.
/// x is packed once (PackRows); the self-tuning scales σ_i come from a
/// first tiled pass (graph::SelfTuningScales) and the kernel values from a
/// second, both filling row-tile panels with graph::SquaredDistanceTile —
/// the kernel PairwiseSquaredDistances runs — and each panel row feeds the
/// bounded top-k selector directly. Produces byte-for-byte the same CSR
/// graph as
///   BuildKnnGraph(SelfTuningKernel(PairwiseSquaredDistances(x), k), k, s)
/// at every feature dimension and thread count (graph_tiled_test
/// FromFeaturesMatchesDensePipelineAtEveryDimension pins d up to 1302), at
/// O(n·k + n·d) peak memory instead of O(n²).
/// Requires n >= 2 and 1 <= k < n.
StatusOr<la::CsrMatrix> BuildKnnGraphFromFeatures(
    const la::Matrix& x, std::size_t k,
    KnnSymmetrization symmetrization = KnnSymmetrization::kUnion);

/// Adaptive-neighbor graph (the probabilistic-neighbors closed form of
/// Nie et al., CAN): row i gets weights over its k nearest neighbors
/// proportional to (d_{i,k+1} − d_{i,j}), which solves
/// min_w Σ_j d_ij·w_ij + γ‖w_i‖² on the probability simplex with the γ that
/// makes exactly k weights nonzero. Rows sum to 1; output is symmetrized
/// with (W + Wᵀ)/2. Input: squared distances; requires 1 <= k < n − 1.
/// Wrapper over the tiled core (ties resolve to the smaller index);
/// bitwise deterministic across thread counts.
StatusOr<la::CsrMatrix> AdaptiveNeighborGraph(const la::Matrix& sq_dists,
                                              std::size_t k);

/// Adaptive-neighbor graph straight from the n × d feature matrix in
/// O(n·k + n·d) memory: graph::SquaredDistanceTile panels against x packed
/// once feed the bounded (k+1)-nearest selection directly — no dense
/// distance matrix. Byte-identical to
/// AdaptiveNeighborGraph(PairwiseSquaredDistances(x), k) at every feature
/// dimension (pinned by the same graph_tiled_test case).
/// Requires 1 <= k < n − 1.
StatusOr<la::CsrMatrix> AdaptiveNeighborGraphFromFeatures(
    const la::Matrix& x, std::size_t k);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_KNN_GRAPH_H_
