#ifndef UMVSC_LA_OPS_H_
#define UMVSC_LA_OPS_H_

#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector.h"

namespace umvsc::la {

/// C = A · B. Requires A.cols() == B.rows(). Routed through the packed
/// register-blocked SIMD kernel (la/gemm_kernel.h), row-block-parallel on
/// the global thread pool (see common/parallel.h); the accumulation grid
/// is a pure function of the shape, so the result is bitwise identical at
/// every thread count and across SIMD and scalar builds.
/// Thread-safe for concurrent callers on distinct outputs.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = Aᵀ · B. Requires A.rows() == B.rows(). Avoids materializing Aᵀ.
/// Parallel over contiguous strips of C's rows; bitwise deterministic
/// across thread counts.
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// C = A · Bᵀ. Requires A.cols() == B.cols(). Avoids materializing Bᵀ.
/// Row-parallel; bitwise deterministic across thread counts.
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// C += A · B, accumulating straight into caller storage — the fused
/// flavor of MatMul for inner loops that would otherwise allocate a
/// temporary product and add it in a second pass (block-Lanczos panel
/// updates). Requires C pre-shaped to A.rows() × B.cols(). For an inner
/// dimension within one kc block of the GEMM grid (k ≤ 256, which covers
/// every Krylov panel width in this library) the result is bitwise equal
/// to `c.Add(MatMul(a, b), 1.0)`; beyond that the kc-block partials fold
/// into the existing C values in ascending block order instead of being
/// summed first, so the last bits may differ — deterministically, and
/// identically at every thread count.
void MatMulAddInto(const Matrix& a, const Matrix& b, Matrix& c);

/// C = Aᵀ · B into caller storage (overwritten) — the allocation-free
/// flavor of MatTMul for iteration loops that reuse a projection buffer.
/// Requires C pre-shaped to A.cols() × B.cols(). Bitwise equal to
/// MatTMul(a, b) at every thread count.
void MatTMulInto(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A · Bᵀ into caller storage (overwritten) — MatMulT without the
/// allocation. Requires C pre-shaped to A.rows() × B.rows(). Bitwise equal
/// to MatMulT(a, b) at every thread count.
void MatMulTInto(const Matrix& a, const Matrix& b, Matrix& c);

/// y = A · x. Requires A.cols() == x.size(). Row-parallel with a
/// vectorized fixed-tree dot per row; bitwise deterministic across
/// thread counts.
Vector MatVec(const Matrix& a, const Vector& x);

/// y = Aᵀ · x. Requires A.rows() == x.size().
Vector MatTVec(const Matrix& a, const Vector& x);

/// Aᵀ as a new matrix. Cache-blocked tiles, parallel over row strips of A
/// (pure data movement — no arithmetic to reorder).
Matrix Transpose(const Matrix& a);

/// Gram matrix Aᵀ·A. Deterministic row-chunked ParallelReduce over the
/// packed GEMM kernel; the chunk grid depends only on A's row count, so
/// the result is bitwise identical at every thread count and bitwise
/// symmetric (both triangles come from identical arithmetic).
Matrix Gram(const Matrix& a);

/// Outer-product Gram A·Aᵀ. Row-parallel over the upper triangle; bitwise
/// deterministic across thread counts.
Matrix OuterGram(const Matrix& a);

/// Tr(Aᵀ · B) = Σ_ij A_ij·B_ij. Requires matching shapes.
double TraceOfProduct(const Matrix& a, const Matrix& b);

/// Tr(Fᵀ · L · F) for symmetric L — the smoothness term of spectral
/// clustering objectives. Requires L square with L.cols() == F.rows().
/// Row-chunked deterministic ParallelReduce: the summation order is fixed
/// by the row count alone, so the value is bitwise identical at every
/// thread count (it may differ in the last bits from a straight serial
/// loop; see docs/THREADING.md).
double QuadraticTrace(const Matrix& l, const Matrix& f);

/// Sparse variant: Tr(Fᵀ·L·F) = Σ_{(i,j) ∈ nnz(L)} L_ij · (F_i·F_j),
/// O(nnz·k) — the fast path for kNN-graph Laplacians. Same deterministic
/// row-chunked reduction as the dense overload.
double QuadraticTrace(const CsrMatrix& l, const Matrix& f);

/// Elementwise (Hadamard) product. Requires matching shapes.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// A + alpha·B as a new matrix. Requires matching shapes.
Matrix Add(const Matrix& a, const Matrix& b, double alpha = 1.0);

/// Concatenates blocks left-to-right. All must share the row count.
Matrix HConcat(const std::vector<Matrix>& blocks);

/// Max-norm distance of Qᵀ·Q from the identity — 0 for a perfectly
/// orthonormal-column matrix. Handy for test assertions and invariants.
double OrthonormalityError(const Matrix& q);

}  // namespace umvsc::la

#endif  // UMVSC_LA_OPS_H_
