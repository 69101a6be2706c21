#ifndef UMVSC_GRAPH_DISTANCE_H_
#define UMVSC_GRAPH_DISTANCE_H_

#include <algorithm>
#include <cstddef>

#include "la/gemm_kernel.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace umvsc::graph {

/// Pairwise squared Euclidean distances between the rows of `x`:
/// D²_ij = ‖x_i − x_j‖², SquaredDistanceTile spans against x packed once,
/// so every off-diagonal entry is bitwise the value the feature-direct
/// graph builders see. Exactly symmetric; the diagonal is exactly zero.
/// Row-parallel on the global thread pool (common/parallel.h) with
/// write-disjoint spans: the output is bitwise identical at every
/// UMVSC_NUM_THREADS setting. Safe to call concurrently.
la::Matrix PairwiseSquaredDistances(const la::Matrix& x);

/// Pairwise Euclidean distances (element-wise sqrt of the above).
/// Parallel and bitwise deterministic across thread counts.
la::Matrix PairwiseDistances(const la::Matrix& x);

/// ‖x‖² of one k-entry row, accumulated in ascending-feature order.
double RowSquaredNorm(const double* x, std::size_t k);

/// Squared Euclidean norms of the rows of `x`: RowSquaredNorm of each row.
la::Vector RowSquaredNorms(const la::Matrix& x);

/// The Gram-expansion squared distance max(0, ‖x‖² + ‖a‖² − 2·x·a),
/// clamped at zero.
inline double SquaredFromDot(double nx, double na, double dot) {
  return std::max(0.0, nx + na - 2.0 * dot);
}

/// A set of m rows (training rows or anchors) prepared once for
/// SquaredDistanceTile: ‖r_j‖² per row (RowSquaredNorms) and the rows
/// packed as the transposed B operand of la::kernel::GemmAdd (d × m).
/// Derived from the rows alone — rebuilt wherever they change, never
/// serialized — and immutable, so concurrent calls share it.
struct PackedRows {
  la::Vector sq_norms;
  la::kernel::PackedB packed;
};

/// Builds the PackedRows of an m × d row matrix.
PackedRows PackRows(const la::Matrix& rows);

/// The one squared-distance kernel: every Gram-expansion distance between
/// feature rows in the library comes from here. For `rows` rows of `x`
/// (row-major, stride d = packed.packed.k) writes d2[i·m + j] =
/// SquaredFromDot(‖x_i‖², ‖r_j‖², x_i·r_j) for the m = packed.packed.n
/// packed rows: the dots from one GemmAdd against packed.packed (its kc
/// accumulation grid), ‖x_i‖² from RowSquaredNorm. A row gets the same bits
/// in a one-row call as in a taller tile. When x holds the packed rows
/// themselves, d2(i, j) equals d2(j, i) bitwise (the products commute and
/// share their order), but the diagonal is not forced to zero: callers skip
/// or overwrite it. `d2` (rows × m) is overwritten. Serial: the inner
/// kernel of tile-parallel loops.
void SquaredDistanceTile(const PackedRows& packed, const double* x,
                         std::size_t rows, double* d2);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_DISTANCE_H_
