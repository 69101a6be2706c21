#ifndef UMVSC_GRAPH_ANCHORS_H_
#define UMVSC_GRAPH_ANCHORS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace umvsc::graph {

/// How the m anchor rows are chosen from the n data rows.
enum class AnchorSelection {
  /// Deterministic uniform sample without replacement (seeded).
  kUniform,
  /// Seeded k-means++ seeding over a bounded candidate subsample, followed
  /// by a few Lloyd refinement sweeps restricted to that subsample. Spreads
  /// the anchors to cover the data far better than a uniform draw at
  /// essentially no cost: every step is O(candidates·m·d) with
  /// candidates = O(m), independent of n.
  kKmeansppRefine,
};

/// Options for per-view anchor selection.
struct AnchorOptions {
  /// Anchor count m. Accuracy and cost both grow with m; m ≈ 10–50 ×
  /// clusters is typical for the large-scale path.
  std::size_t num_anchors = 256;
  AnchorSelection selection = AnchorSelection::kKmeansppRefine;
  /// Lloyd sweeps over the candidate subsample (kKmeansppRefine only).
  std::size_t refine_iterations = 4;
  /// Candidate pool for the k-means++ stage: min(n, max(candidate_factor·m,
  /// 1024)) uniformly sampled rows. Bounds the whole selection at O(m²·d).
  std::size_t candidate_factor = 8;
  std::uint64_t seed = 0;
};

/// Selects m anchor points from the rows of `x` (n × d). Seeded, with serial
/// draws; kKmeansppRefine's candidate–center distances run in SIMD lane
/// blocks on the pool, every lane the scalar distance loop's chain, so the
/// result is a pure function of (x, options): the same bits at every thread
/// count. Requires 1 <= num_anchors <= n.
///
/// kUniform returns the sampled rows in draw order. kKmeansppRefine returns
/// the refined candidate-subset centroids (anchors need not coincide with
/// data rows after refinement — they are landmarks, not medoids); an empty
/// refinement cluster keeps its previous center, so exactly m anchors come
/// back in all cases.
StatusOr<la::Matrix> SelectAnchors(const la::Matrix& x,
                                   const AnchorOptions& options);

/// Options for the bipartite anchor-affinity builder.
struct AnchorGraphOptions {
  /// Nonzeros per row s: each point connects to its s nearest anchors.
  std::size_t anchor_neighbors = 5;
  /// Row-tile height of the tiled distance panels (memory/locality knob,
  /// never a semantics knob — the output is bitwise identical at every
  /// setting, exactly like TiledGraphOptions::tile_rows).
  std::size_t tile_rows = 128;
};

/// Builds the bipartite anchor affinity Z (n × m CSR, s nonzeros per row):
/// point i connects to its s nearest anchors j with self-tuning Gaussian
/// weights exp(−d²_ij / σ²_i), σ²_i = the s-th-nearest squared distance
/// (clamped away from zero), then each row is normalized to sum to 1 — so Z
/// is row-stochastic and the implicit affinity Ẑ·Ẑᵀ has spectrum in [0, 1].
/// Ties at the s-th distance keep the smaller anchor index (the BoundedTopK
/// rule); within a row, columns are stored in ascending anchor order.
///
/// Runs on tile_rows × m distance panels through the tiled selection core:
/// peak auxiliary memory is O(tile_rows·m) per participating thread plus the
/// O(n·s) output — never an n × m dense buffer — and the result is bitwise
/// identical at every tile size and thread count. Requires
/// 1 <= anchor_neighbors <= anchors.rows() and matching feature dims.
StatusOr<la::CsrMatrix> BuildAnchorAffinity(
    const la::Matrix& x, const la::Matrix& anchors,
    const AnchorGraphOptions& options = {});

/// The weighting half of BuildAnchorAffinity's row rule, which the serving
/// side (mvsc::assign::SelectAnchorRow) runs too, so training and serving
/// rows agree bit for bit. On entry `cols`/`vals` hold one row's s selected
/// anchors and their squared distances in rank (ascending-distance) order.
/// On exit `vals` holds the self-tuning Gaussian weights exp(−d²/σ²),
/// σ² = the s-th-nearest squared distance floored at 1e-300, summed in rank
/// order and scaled by the reciprocal of that sum, and both arrays are
/// sorted to ascending anchor order. Requires s >= 1.
void WeightAnchorRow(std::size_t s, std::size_t* cols, double* vals);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_ANCHORS_H_
