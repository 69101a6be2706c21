#ifndef UMVSC_LA_SPARSE_H_
#define UMVSC_LA_SPARSE_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace umvsc::la {

/// A (row, col, value) entry used to assemble sparse matrices.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Compressed sparse row matrix (double). Immutable after construction;
/// assemble via the triplet factory, which sorts and merges duplicates by
/// summation (the usual finite-element / graph-assembly convention).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assembles from triplets; duplicate (row, col) entries are summed and
  /// explicit zeros produced by cancellation are kept (they are harmless).
  static CsrMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> triplets);

  /// Dense-to-sparse conversion, dropping entries with |x| <= drop_tol.
  static CsrMatrix FromDense(const Matrix& dense, double drop_tol = 0.0);

  /// Adopts already-assembled CSR arrays: `row_offsets` of length rows + 1
  /// with row_offsets[0] == 0, column indices strictly ascending within each
  /// row, and values of matching length. This is the no-sort fast path for
  /// callers that maintain a fixed sparsity pattern across iterations (see
  /// CsrCombiner); invariants are checked.
  static CsrMatrix FromParts(std::size_t rows, std::size_t cols,
                             std::vector<std::size_t> row_offsets,
                             std::vector<std::size_t> col_indices,
                             std::vector<double> values);

  /// n × n identity.
  static CsrMatrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t NumNonZeros() const { return values_.size(); }

  /// CSR internals (for tight loops in callers).
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A·x. Requires x.size() == cols().
  Vector Multiply(const Vector& x) const;
  /// y += alpha · A·x, writing into a caller-provided buffer (no alloc).
  /// Row-parallel on the global thread pool; each output row is one
  /// independent serial sum over that row's nonzeros, so the result is
  /// bitwise identical at every thread count.
  void MultiplyInto(const Vector& x, Vector& y, double alpha = 1.0) const;
  /// C = A·B for a dense right factor.
  Matrix Multiply(const Matrix& b) const;
  /// Y += alpha · A·X — the multi-vector SpMM kernel under the block
  /// eigensolver. Requires X of shape cols() × b and Y of shape rows() × b.
  /// Row-parallel over the thread pool. Skinny panels (b ≤ 12 — every
  /// Krylov panel, given the width cap of 10 in la/lanczos.h) run a
  /// register-resident kernel specialized per width at compile time: the
  /// whole accumulator row is held in 4-lane SIMD register groups plus a
  /// scalar remainder (la/simd.h) while the row's nonzeros stream by. Wider
  /// panels use the cache-blocked generic kernel. Both paths accumulate
  /// each output element's nonzeros unfused in CSR order, so the result is
  /// bitwise identical across thread counts, across the skinny/generic
  /// paths and SIMD/scalar builds, AND equal to b independent MultiplyInto
  /// calls on the columns (parallel_determinism_test relies on this).
  void MultiplyInto(const Matrix& x, Matrix& y, double alpha = 1.0) const;

  /// Aᵀ as a new CSR matrix. Counting-sort construction: per-column nnz
  /// histogram → prefix-sum offsets → one ordered scatter pass, O(nnz)
  /// with no triplet buffer and no comparison sort.
  CsrMatrix Transposed() const;
  /// Per-row sums (the weighted degree vector when A is an adjacency).
  Vector RowSums() const;
  /// Entry lookup; O(log nnz-in-row). Returns 0 for absent entries.
  double At(std::size_t row, std::size_t col) const;
  /// Dense copy (for tests and small problems).
  Matrix ToDense() const;
  /// this *= alpha.
  void Scale(double alpha);

  /// True when the sparsity pattern and values are symmetric within tol.
  bool IsSymmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // length rows_ + 1
  std::vector<std::size_t> col_indices_;  // length nnz, sorted within a row
  std::vector<double> values_;            // length nnz
};

/// Weighted sum Σ_v weights[v]·matrices[v] of equally-shaped CSR matrices.
/// Requires at least one matrix and matching weight count/shapes.
CsrMatrix WeightedSum(const std::vector<CsrMatrix>& matrices,
                      const std::vector<double>& weights);

/// Precomputed union sparsity pattern for repeated weighted combinations of
/// a FIXED set of CSR matrices (the per-view Laplacians of an alternating
/// solver, combined once per outer iteration with fresh weights). Plan()
/// merges the patterns and records, for every stored entry of every input
/// matrix, its slot in the union — Combine() is then a value-only axpy over
/// fixed structure: no triplet buffer, no sort, no pattern work. Combine's
/// accumulation runs in input order v = 0, 1, …, the same order WeightedSum
/// sums duplicates in, so results match it bitwise for up to two overlapping
/// entries per slot and differ only in floating-point summation order beyond
/// that.
class CsrCombiner {
 public:
  /// Builds the union pattern and the per-matrix slot maps. Requires at
  /// least one matrix; all must share one shape. Later Combine() calls must
  /// pass matrices with exactly the patterns seen here (values may change).
  static CsrCombiner Plan(const std::vector<CsrMatrix>& matrices);

  /// result = Σ_v weights[v]·matrices[v] on the planned union pattern.
  /// Entries whose weighted sum cancels to zero stay as explicit zeros —
  /// same convention as FromTriplets. Checks that each matrix still has the
  /// planned nonzero count.
  CsrMatrix Combine(const std::vector<CsrMatrix>& matrices,
                    const std::vector<double>& weights) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t NumNonZeros() const { return col_indices_.size(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // union pattern, length rows_ + 1
  std::vector<std::size_t> col_indices_;  // union pattern, sorted per row
  /// slots_[v][k] = union-value index of matrix v's k-th stored entry.
  std::vector<std::vector<std::size_t>> slots_;
};

namespace internal {
/// The cache-blocked wide-panel SpMM (Y += alpha·A·X) regardless of panel
/// width — the kernel MultiplyInto routes b > 12 to. Exposed so tests can
/// assert the skinny specializations are bitwise identical to it.
void SpmmGeneric(const CsrMatrix& a, const Matrix& x, Matrix& y,
                 double alpha = 1.0);
}  // namespace internal

}  // namespace umvsc::la

#endif  // UMVSC_LA_SPARSE_H_
