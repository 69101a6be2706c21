#ifndef UMVSC_MVSC_ANCHOR_UNIFIED_H_
#define UMVSC_MVSC_ANCHOR_UNIFIED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc {

/// Everything needed to extend ONE view of a fitted anchor solve to a new
/// point: standardize with the training statistics, build the s-sparse
/// anchor row z (graph::BuildAnchorAffinity's row rule: s nearest anchors,
/// self-tuning bandwidth = own s-th-nearest squared distance, row
/// normalized), then u_v = z·anchor_map — this view's reduced coordinates.
struct AnchorViewModel {
  /// m × d_v anchor points, in STANDARDIZED feature space.
  la::Matrix anchors;
  /// m × k_v extension map of the per-view anchor embedding.
  la::Matrix anchor_map;
  /// Per-feature standardization of this view (identity when the solve ran
  /// unstandardized).
  la::Vector feature_means;
  la::Vector feature_inv_stds;
};

/// The reduced space and cluster geometry of one anchor-mode solve — the
/// serving-side artifact: assignment of a new point touches only anchors
/// and p-dimensional matrices, never the training rows.
struct AnchorModel {
  std::vector<AnchorViewModel> views;
  /// Nonzeros per bipartite row (the s of every view's extension rule).
  std::size_t anchor_neighbors = 0;
  std::size_t num_clusters = 0;
  /// p' × p mixing map: concatenated per-view reduced coordinates
  /// [u_1 | … | u_V] (p' = Σ k_v) → joint orthonormal basis coordinates.
  la::Matrix mix;
  /// p' × c assignment map, mix·G·R of the final solve: a new point's
  /// cluster is the row-argmax of [u_1 | … | u_V]·assignment — ties keep
  /// the smaller cluster index, matching the training discretization.
  la::Matrix assignment;
};

/// One view's anchor fit: the model that extends the view to new points,
/// the n × m bipartite graph Z_v it was fitted on (s-sparse rows, raw
/// row-stochastic weights — BuildReducedProblem normalizes them), and the
/// n × k_v anchor embedding U_v = Z_v·anchor_map.
struct AnchorViewFit {
  AnchorViewModel model;
  la::CsrMatrix z;
  la::Matrix embedding;
};

/// The per-view stage of every anchor solve (SolveUnifiedAnchors and the
/// streaming full re-solve): optional z-scoring (data/standardize.h,
/// recorded in the model) → graph::SelectAnchors(options.anchors.num_anchors
/// anchors, options.anchors.selection, `anchor_seed`) →
/// graph::BuildAnchorAffinity(options.anchors.anchor_neighbors,
/// options.anchors.tile_rows) → cluster::AnchorSpectralEmbedding with
/// k_v = min(basis_per_view, m) directions, where basis_per_view = 0
/// resolves against the CURRENT options.num_clusters as c + 2. Lanczos
/// operator applications are added to `*matvec_count` (when non-null).
/// Bitwise deterministic at every thread count and tile size.
StatusOr<AnchorViewFit> FitAnchorView(la::Matrix x,
                                      const UnifiedOptions& options,
                                      std::uint64_t anchor_seed,
                                      bool standardize,
                                      std::size_t* matvec_count);

/// Result of the anchor-mode unified solve: the standard UnifiedResult
/// (labels, n × c embedding/indicator, rotation, weights, traces) plus the
/// model needed for out-of-sample assignment.
struct AnchorUnifiedResult {
  UnifiedResult result;
  AnchorModel model;
};

/// The unified multi-view solver in anchor (reduced-space) form — the
/// large-scale path behind UnifiedOptions::anchors:
///
///   per view (FitAnchorView, seed + 211·(v + 1)): anchors A_v (seeded
///   k-means++/uniform) → bipartite Z_v (n × m, s-sparse) → anchor
///   embedding U_v = Ẑ_v·map_v (n × k_v)
///   joint basis (BuildReducedProblem): B = [U_1 | … | U_V]·T, T from the
///   Gram eigendecomposition (rank-deficient directions truncated) — an
///   orthonormal n × p basis, p = Σ k_v (minus truncation)
///   reduced Laplacians (BuildReducedProblem): H_v = BᵀL_vB =
///   BᵀB − (Ẑ_vᵀB)ᵀ(Ẑ_vᵀB), p × p with spectrum in [0, 2] — computed in
///   O(n·s·p) without forming L_v
///
/// then the exact path's alternation driver restricted to F = B·G (one
/// driver serves both, reduced_solve.h): spectral floors, warm-started init
/// alternations, and the alternating G/R/Y/α updates all operate on the
/// p × p reduced Laplacians. Reconstruction to n rows happens ONLY at
/// label-assignment time (the Y-step's row-argmax of B·G·R and the final
/// embedding/indicator), keeping the per-iteration cost O(n·p·c + p²·c)
/// and the whole solve O(n·(m·d + s² + p·c)) — near-linear in n.
///
/// Deterministic end to end: seeded anchor selection, the bitwise-stable
/// bipartite builder, serial reduced accumulations in row order, and the
/// seeded eigensolves make labels and embedding bitwise identical at every
/// thread count and tile size.
///
/// `standardize` applies per-view z-scoring (recorded in the model so new
/// points are mapped with the SAME statistics); pass the same flag
/// GraphOptions::standardize would carry on the exact path. Requires
/// options.anchors.num_anchors < n and 2 <= c <= basis size.
StatusOr<AnchorUnifiedResult> SolveUnifiedAnchors(
    const data::MultiViewDataset& dataset, const UnifiedOptions& options,
    bool standardize = true);

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_ANCHOR_UNIFIED_H_
