#ifndef UMVSC_GRAPH_DISTANCE_H_
#define UMVSC_GRAPH_DISTANCE_H_

#include <cstddef>

#include "la/matrix.h"
#include "la/vector.h"

namespace umvsc::graph {

/// Pairwise squared Euclidean distances between the rows of `x`:
/// D²_ij = ‖x_i − x_j‖². Computed via the Gram expansion
/// ‖x_i‖² + ‖x_j‖² − 2·x_iᵀx_j with clamping at zero, so it is O(n²·d)
/// with a single GEMM-shaped pass. The diagonal is exactly zero.
/// Row-parallel on the global thread pool (common/parallel.h) with
/// write-disjoint spans: the output is bitwise identical at every
/// UMVSC_NUM_THREADS setting. Safe to call concurrently.
la::Matrix PairwiseSquaredDistances(const la::Matrix& x);

/// Pairwise Euclidean distances (element-wise sqrt of the above).
/// Parallel and bitwise deterministic across thread counts.
la::Matrix PairwiseDistances(const la::Matrix& x);

/// Pairwise cosine similarity between rows, in [−1, 1]. Zero rows get
/// similarity 0 against everything (including themselves). Row-parallel
/// and bitwise deterministic across thread counts.
la::Matrix CosineSimilarity(const la::Matrix& x);

/// ‖x‖² of one k-entry row, accumulated in ascending-feature order.
double RowSquaredNorm(const double* x, std::size_t k);

/// Squared Euclidean norms of the rows of `x`: RowSquaredNorm of each row —
/// bitwise identical to the diagonal of `la::OuterGram(x)`. The
/// O(n)-memory ingredient of the tiled distance panels.
la::Vector RowSquaredNorms(const la::Matrix& x);

/// Fills a row-tile panel of pairwise squared distances:
///   panel(i − r0, j) = max(0, ‖x_i‖² + ‖x_j‖² − 2·x_i·x_j)
/// for i in [r0, r1), j in [0, n). `sq_norms` must be RowSquaredNorms(x) and
/// `panel` must provide (r1 − r0) × n entries. Entries are bitwise identical
/// to the corresponding entries of PairwiseSquaredDistances(x) — same Gram
/// expansion, same ascending dot-product order, same clamp — so tiled
/// consumers reproduce the dense path exactly without ever holding an n × n
/// matrix. Serial by design: it is the inner kernel of tile-parallel loops.
void SquaredDistancePanel(const la::Matrix& x, const la::Vector& sq_norms,
                          std::size_t r0, std::size_t r1, double* panel);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_DISTANCE_H_
