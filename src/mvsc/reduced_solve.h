#ifndef UMVSC_MVSC_REDUCED_SOLVE_H_
#define UMVSC_MVSC_REDUCED_SOLVE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc {

/// The reduced-space alternation shared by the batch anchor solver
/// (anchor_unified.cc) and the streaming updater (stream/). Both operate on
/// the SAME object — per-view reduced Laplacians H_v = BᵀL_vB (p × p CSR)
/// over an orthonormal basis B (n × p) with F = B·G; only how they ENTER
/// the alternation differs (cold discretize-init + polish vs. warm-started
/// from carried state), so the entry is a control knob. The alternation
/// itself is the solver's one G/R/Y/α driver (internal::SolveAlternation,
/// unified_internal.h), which the exact UnifiedMVSC::Run(graphs) also runs
/// — with no basis, F = G.

/// Joint orthonormal basis B = concat·mix over concatenated per-view
/// embeddings [U_1 | … | U_V]: mix = W·S^{−1/2} from the Gram
/// eigendecomposition concatᵀconcat = W·S·Wᵀ over the directions with
/// non-negligible eigenvalue (relative 1e-10 cutoff) — rank deficiency
/// across views (shared structure) truncates gracefully instead of
/// dividing by zero. Fills `mix_out` (p_full × p, kept directions in
/// descending eigenvalue order) and returns B (n × p, BᵀB ≈ I). Errors
/// when the kept rank falls below `min_rank`.
StatusOr<la::Matrix> JointOrthonormalBasis(const la::Matrix& concat,
                                           std::size_t min_rank,
                                           la::Matrix* mix_out);

/// The reduced problem of one anchor solve over n rows: the joint basis
/// and every view's reduced Laplacian.
struct ReducedProblem {
  la::Matrix basis;  ///< n × p orthonormal B = concat·mix
  la::Matrix mix;    ///< p_full × p (JointOrthonormalBasis)
  /// H_v = BᵀL_vB = BᵀB − E_vᵀE_v with E_v = Ẑ_vᵀB (m × p, one row-order
  /// scatter — O(n·s·p), never an n × n Laplacian), Ẑ_v = Z_v·Λ_v^{−1/2};
  /// symmetrized, p × p CSR, so the exact path's combiner, eigensolves,
  /// GPI and trace kernels apply unchanged. Spectrum in [0, 1] up to basis
  /// rounding (Z row-stochastic).
  std::vector<la::CsrMatrix> laplacians;
};

/// One view's raw bipartite graph Z_v over the n rows of a reduced
/// problem, borrowed in the one layout every anchor graph here has:
/// exactly s entries per row, row i's anchor indices and weights at
/// cols/vals + i·s (graph::BuildAnchorAffinity's CSR arrays, or a window
/// of the stream's flat per-view arrays).
struct AnchorRows {
  const std::size_t* cols = nullptr;
  const double* vals = nullptr;
  std::size_t num_anchors = 0;  ///< m_v, the column count of Z_v
};

/// Builds the ReducedProblem from the concatenated per-view embeddings
/// [U_1 | … | U_V] (n × p_full, consumed: released once the basis is
/// built) and each view's s-strided rows of Z_v (the rows of `concat` in
/// the same order), read in place — no CSR, scaled or transposed copy of
/// Z_v is made. The degree normalization Λ_v is the column masses of the
/// rows given — accumulated serially in storage order, bitwise equal to
/// cluster::AnchorEmbeddingResult::anchor_mass on the same Z — so a caller
/// whose rows changed since the embedding (the streaming window) gets the
/// CURRENT masses: stale ones would let ‖ẐẐᵀ‖ exceed 1 and drive H_v
/// indefinite. E_v = Ẑ_vᵀB accumulates in row order through the unfused
/// la::kernel::Axpy, bitwise equal to the transposed CSR SpMM. Errors when
/// the basis rank falls below `num_clusters`.
StatusOr<ReducedProblem> BuildReducedProblem(
    la::Matrix concat, std::size_t s, const std::vector<AnchorRows>& views,
    std::size_t num_clusters);

/// State carried between solves to warm-start the next one: the reduced
/// embedding seeds the init eigensolves (la::LanczosOptions::warm_start),
/// the rotation replaces the cold discretize-init restarts, and the weight
/// coefficients skip the uniform-mixture cold open. Shapes are validated
/// against the current problem; a stale shape (e.g. after a cluster-count
/// change) disables that part of the warm start rather than erroring.
struct ReducedWarmStart {
  la::Matrix g;         ///< p × c reduced embedding of the previous solve
  la::Matrix rotation;  ///< c × c orthogonal rotation of the previous solve
  std::vector<double> weight_coefficients;  ///< per-view combination coeffs
};

/// How to enter the alternation.
struct ReducedSolveControls {
  /// When set, enters warm: G seeds the init eigensolves, the carried
  /// rotation replaces the discretize-init, weights open at the carried
  /// mixture, and the final (Y, R) polish is skipped — the carried rotation
  /// already sits at the incumbent's fixed point and per-batch latency
  /// matters more than a last objective nudge. When null, the cold path
  /// runs: uniform weights, DiscretizeEmbedding init at seed+31, and the
  /// polish at seed+97 (a restarted re-search accepted only on objective
  /// improvement). A stale warm shape degrades that piece to cold but
  /// still skips the polish.
  const ReducedWarmStart* warm = nullptr;
};

/// Final state of a solve, in the form the next warm start (and the drift
/// detector) consumes.
struct ReducedSolveState {
  la::Matrix g;         ///< p × c
  la::Matrix rotation;  ///< c × c
  std::vector<double> weight_coefficients;  ///< combination coefficients
  /// Per-view smoothness h_v at the final G (floors applied under kExcess)
  /// — the drift detector's per-view signal.
  std::vector<double> smoothness;
  /// Final objective value (after the polish decision) — the drift
  /// detector's global signal.
  double objective = 0.0;
};

/// Runs spectral floors (kExcess) → init alternations → G/R/Y/α loop →
/// polish when cold: internal::SolveAlternation with `basis` set. Appends
/// traces and matvec counts to `result` and fills its labels / indicator /
/// embedding / rotation / view_weights. `basis`
/// must have orthonormal columns (BᵀB ≈ I) and as many columns as each H_v
/// has rows. Bitwise deterministic across thread counts for fixed options.
StatusOr<ReducedSolveState> SolveReducedAlternation(
    const std::vector<la::CsrMatrix>& reduced, const la::Matrix& basis,
    const UnifiedOptions& options, const ReducedSolveControls& controls,
    UnifiedResult* result);

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_REDUCED_SOLVE_H_
