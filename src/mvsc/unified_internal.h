#ifndef UMVSC_MVSC_UNIFIED_INTERNAL_H_
#define UMVSC_MVSC_UNIFIED_INTERNAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "mvsc/reduced_solve.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc::internal {

/// The unified solver's alternation driver and its building blocks. One
/// driver (SolveAlternation, reduced_solve.cc) runs the G/R/Y/α loop for
/// the exact n-row path (UnifiedMVSC::Run(graphs), no basis: F = G) and
/// for the reduced anchor path (SolveReducedAlternation, F = B·G); the
/// blocks below are its α-step, floors and objective; its Y-step is
/// cluster::YStep. Nothing outside mvsc/ should include this header.

/// The one G/R/Y/α alternation: spectral floors (kExcess) → init
/// alternations → discretize-init (or the warm rotation) → loop → polish
/// (cold entries only), with SolveReducedAlternation's contract. `basis` null is the
/// exact path: `laplacians` are the n × n L_v themselves, F = G and the
/// reduced image P = BᵀŶ is Ŷ (aliases, no copies); the warm-up
/// eigensolves then run on MassNormalizedCombination, which incomplete
/// views need. Otherwise `basis` is the n × p B of the reduced problem.
/// `state` may be null (the exact path reads only `result`), which skips
/// the final objective and smoothness evaluation.
Status SolveAlternation(const std::vector<la::CsrMatrix>& laplacians,
                        const la::Matrix* basis, const UnifiedOptions& options,
                        const ReducedSolveControls& controls,
                        UnifiedResult* result, ReducedSolveState* state);

/// Per-view smoothness h_v = Tr(Fᵀ L_v F) − offsets[v], floored away from
/// zero. View-parallel with write-disjoint slots; bitwise deterministic.
std::vector<double> ViewSmoothness(const std::vector<la::CsrMatrix>& laplacians,
                                   const la::Matrix& f,
                                   const std::vector<double>& offsets);

/// ĉ_v per view: the sum of the c smallest eigenvalues of L_v. Requires
/// every L_v spectrum within [0, 2] (normalized Laplacians and their
/// reduced-space compressions both satisfy this).
StatusOr<std::vector<double>> SpectralFloors(
    const std::vector<la::CsrMatrix>& laplacians, std::size_t c,
    const la::LanczosOptions& lanczos, la::EigensolveMode block_lanczos,
    std::size_t* matvec_total);

/// {normalized α for reporting, Laplacian combination coefficients}.
struct Weights {
  std::vector<double> alpha;
  std::vector<double> coefficients;
};

/// Closed-form α-step for every weighting mode, with the small-coefficient
/// floor that keeps fragmented views from absorbing the whole null space.
Weights UpdateWeights(const std::vector<double>& h, ViewWeighting mode,
                      double gamma);

/// The unified objective Σ_v coefficients[v]·Tr(FᵀL_vF) + β·residual²,
/// given the discretization residual ‖Ŷ − F·R‖_F. The per-view traces fan
/// out; the weighted sum runs serially in view order. On the reduced path F
/// is the p × c G and L_v the reduced H_v, whose traces equal the n-row
/// ones.
double ObjectiveFromResidual(const std::vector<la::CsrMatrix>& laplacians,
                             const std::vector<double>& weight_coefficients,
                             double beta, const la::Matrix& f,
                             double residual);

}  // namespace umvsc::mvsc::internal

#endif  // UMVSC_MVSC_UNIFIED_INTERNAL_H_
