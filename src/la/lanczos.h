#ifndef UMVSC_LA_LANCZOS_H_
#define UMVSC_LA_LANCZOS_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "la/sparse.h"
#include "la/sym_eigen.h"

namespace umvsc::la {

/// Abstract symmetric linear operator y += A·x used by the Lanczos solver,
/// so callers can pass sparse matrices, dense matrices, or matrix-free
/// products (e.g. shifted Laplacians) without materializing anything.
using SymmetricOperator =
    std::function<void(const Vector& x, Vector& y)>;

/// Panel form of the same abstraction: Y += A·X for an n × b panel X. One
/// application advances b Krylov directions at once, which is what lets the
/// block solver spend its time in level-3 kernels (CSR SpMM, MatTMul,
/// MatMul) instead of b separate memory-bound matvecs.
using SymmetricBlockOperator =
    std::function<void(const Matrix& x, Matrix& y)>;

/// Options for the Lanczos eigensolver.
struct LanczosOptions {
  /// Maximum Krylov subspace dimension before declaring non-convergence.
  std::size_t max_subspace = 300;
  /// Residual tolerance on ‖A·v − λ·v‖ relative to the spectral scale.
  double tolerance = 1e-9;
  /// Seed for the random start vector.
  std::uint64_t seed = 19;
  /// Optional warm start: an n × m matrix whose columns approximately span
  /// the wanted eigenspace (e.g. the previous outer iteration's spectral
  /// embedding). The first Lanczos vector becomes the normalized column sum,
  /// and on breakdown the individual columns are consumed before falling
  /// back to random directions — so a good warm start shrinks the Krylov
  /// subspace (and the matvec count) needed to converge. Ignored when null,
  /// when the row count does not match the operator, or when the column sum
  /// is numerically zero. The caller keeps ownership; the matrix must stay
  /// alive for the duration of the solve.
  const Matrix* warm_start = nullptr;
  /// When non-null, incremented once per operator application (for
  /// LanczosSmallest, once per application of the complement operator, which
  /// performs exactly one underlying matvec). The block solver increments by
  /// the panel width per panel application — one unit per Krylov direction
  /// advanced — so warm-start savings stay comparable across the single and
  /// block paths. Lets callers measure how much work warm starting saves.
  /// Not touched concurrently — the solver is single-threaded at this level.
  std::size_t* matvec_count = nullptr;
  /// Panel width of the block solver (BlockLanczosLargest/Smallest only;
  /// the single-vector entry points ignore it). 0 means "min(k, 10)": a
  /// panel as wide as the requested count k captures a c-fold eigenvalue
  /// multiplicity in one shot, but the per-iteration Rayleigh–Ritz solve
  /// grows as O(m³) while a width-b panel only advances the Krylov degree
  /// by 1 per b basis columns, so very wide panels make the dense
  /// eigensolves dominate. The cap keeps the width in the regime where the
  /// level-3 panel kernels win; multiplicities beyond the cap are still
  /// found because deficient panels are repaired with fresh random
  /// directions and residuals are exact. Clamped to [1, n].
  std::size_t block_size = 0;
};

/// Computes the `k` algebraically largest eigenpairs of an n × n symmetric
/// operator with Lanczos + full reorthogonalization. Suitable for the large
/// sparse graph matrices in this library where only a few extreme eigenpairs
/// are needed. Eigenvalues are returned descending.
StatusOr<SymEigenResult> LanczosLargest(const SymmetricOperator& op,
                                        std::size_t n, std::size_t k,
                                        const LanczosOptions& options = {});

/// The `k` smallest eigenpairs of a symmetric operator whose spectrum lies
/// in [0, spectral_bound] (e.g. a normalized Laplacian with bound 2): runs
/// Lanczos on the complement `spectral_bound·I − A`, whose largest pairs are
/// A's smallest. Eigenvalues are returned ascending.
StatusOr<SymEigenResult> LanczosSmallest(const SymmetricOperator& op,
                                         std::size_t n, std::size_t k,
                                         double spectral_bound,
                                         const LanczosOptions& options = {});

/// Convenience overloads for CSR matrices.
StatusOr<SymEigenResult> LanczosLargest(const CsrMatrix& a, std::size_t k,
                                        const LanczosOptions& options = {});
StatusOr<SymEigenResult> LanczosSmallest(const CsrMatrix& a, std::size_t k,
                                         double spectral_bound,
                                         const LanczosOptions& options = {});

/// Block-Lanczos eigensolver: builds the Krylov space in n × b panels
/// instead of single vectors. The basis Q and the operator images A·Q
/// occupy the left m columns of two preallocated n × m_max matrices, so
/// every basis-wide projection is ONE contiguous GemmAdd (level-3 work
/// where the single-vector solver does per-vector dot/axpy). Per iteration
/// it applies the operator to a whole panel (one SpMM for CSR inputs) and
/// reorthogonalizes with fused CGS2: the first classical block
/// Gram–Schmidt pass reuses the Qᵀ(A·panel) projections already computed
/// to extend H = QᵀAQ by one block column, the second recomputes them
/// fresh. Rayleigh–Ritz runs only once the basis can contain the answer
/// (m ≥ k plus a cushion); convergence then tests EXACT residuals
/// ‖A·x − θ·x‖ of the k wanted Ritz pairs (the stored A·Q panels make
/// them cheap), assembled only when a Ritz-value-stability pre-filter
/// says the subspace has plausibly settled — or when the basis is about
/// to run out. Repeated eigenvalues with multiplicity ≤ b are
/// captured inside a single panel — the failure mode that forces the
/// single-vector solver into breakdown restarts. `options.warm_start` seeds
/// the FIRST PANEL column-per-column (no column-sum collapse), so a
/// previous embedding enters the Krylov space whole; remaining warm columns
/// feed rank-deficiency repairs before random directions do.
/// `options.matvec_count` advances by the panel width per application.
/// Deterministic: every kernel underneath is bitwise identical across
/// thread counts, and the serial per-column orthonormalization is ordered
/// by column index. Eigenvalues are returned descending. The single-vector
/// solver is exactly the b = 1 specialization of this iteration.
StatusOr<SymEigenResult> BlockLanczosLargest(
    const SymmetricBlockOperator& op, std::size_t n, std::size_t k,
    const LanczosOptions& options = {});

/// The `k` smallest eigenpairs through the block path: runs
/// BlockLanczosLargest on the panel-fused complement `bound·I − A` (one
/// fused elementwise pass over the whole panel per application, not a
/// per-column lambda). Eigenvalues are returned ascending.
StatusOr<SymEigenResult> BlockLanczosSmallest(
    const SymmetricBlockOperator& op, std::size_t n, std::size_t k,
    double spectral_bound, const LanczosOptions& options = {});

/// Convenience overloads for CSR matrices; the panel application is the
/// row-parallel CsrMatrix SpMM (register-resident skinny kernel at panel
/// widths ≤ 12 — every paper shape — cache-blocked beyond; see sparse.h).
StatusOr<SymEigenResult> BlockLanczosLargest(
    const CsrMatrix& a, std::size_t k, const LanczosOptions& options = {});
StatusOr<SymEigenResult> BlockLanczosSmallest(
    const CsrMatrix& a, std::size_t k, double spectral_bound,
    const LanczosOptions& options = {});

/// Which Lanczos implementation an eigensolve should run through.
enum class EigensolveMode {
  /// The shape rule: block iff k ≥ 16. Both paths converge to the same
  /// eigenpairs within solver tolerance, but their floating-point bits may
  /// differ, so the rule is a fixed function of k — never of timings — and
  /// a given shape resolves the same way on every host and run.
  kAuto,
  /// Always the panel (block) solver.
  kForceBlock,
  /// Always the single-vector solver.
  kForceSingle,
};

/// Resolves `requested` to a concrete solver choice for a k-pair solve at
/// size n. Never returns kAuto: `requested` when it is not kAuto, else
/// block iff k ≥ 16. `n` is accepted for call-site symmetry with the
/// solvers; the rule does not read it.
EigensolveMode ResolveEigensolveMode(EigensolveMode requested, std::size_t n,
                                     std::size_t k);

/// Auto-dispatching entry points: resolve the mode, then run the chosen
/// solver — same contract as the underlying pair either way. The operator
/// forms take only the panel operator; when the single-vector path is
/// chosen, each matvec runs the panel operator on an n × 1 panel (the
/// single path is memory-bound, so the wrapper is not what it waits on).
StatusOr<SymEigenResult> LanczosLargestAuto(
    const CsrMatrix& a, std::size_t k, const LanczosOptions& options = {},
    EigensolveMode mode = EigensolveMode::kAuto);
StatusOr<SymEigenResult> LanczosSmallestAuto(
    const CsrMatrix& a, std::size_t k, double spectral_bound,
    const LanczosOptions& options = {},
    EigensolveMode mode = EigensolveMode::kAuto);
StatusOr<SymEigenResult> LanczosLargestAuto(
    const SymmetricBlockOperator& op, std::size_t n, std::size_t k,
    const LanczosOptions& options = {},
    EigensolveMode mode = EigensolveMode::kAuto);
StatusOr<SymEigenResult> LanczosSmallestAuto(
    const SymmetricBlockOperator& op, std::size_t n, std::size_t k,
    double spectral_bound, const LanczosOptions& options = {},
    EigensolveMode mode = EigensolveMode::kAuto);

}  // namespace umvsc::la

#endif  // UMVSC_LA_LANCZOS_H_
