#ifndef UMVSC_GRAPH_ANCHORS_H_
#define UMVSC_GRAPH_ANCHORS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "graph/distance.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector.h"

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
  /// Row-tile height of the builder's AnchorRowTile calls (memory/locality
  /// knob, never a semantics knob — every row is a pure function of itself,
  /// so the output is bitwise identical at every setting).
  std::size_t tile_rows = 128;
};

/// Builds the bipartite anchor affinity Z (n × m CSR, s nonzeros per row):
/// point i connects to its s nearest anchors j with self-tuning Gaussian
/// weights exp(−d²_ij / σ²_i), σ²_i = the s-th-nearest squared distance
/// (clamped away from zero), then each row is normalized to sum to 1 — so Z
/// is row-stochastic and the implicit affinity Ẑ·Ẑᵀ has spectrum in [0, 1].
/// Ties at the s-th distance keep the smaller anchor index; within a row,
/// columns are stored in ascending anchor order.
///
/// Packs the anchors once (PackRows) and runs AnchorRowTile over
/// tile_rows-row tiles under ParallelFor, writing straight into the CSR
/// arrays: peak auxiliary memory is O(tile_rows·m) per participating thread
/// plus the O(n·s) output — never an n × m dense buffer. Every row is
/// bitwise the row the serving and streaming paths build for the same
/// standardized point (they run the same AnchorRowTile), at every feature
/// dimension, tile size and thread count. Requires
/// 1 <= anchor_neighbors <= anchors.rows() and matching feature dims.
StatusOr<la::CsrMatrix> BuildAnchorAffinity(
    const la::Matrix& x, const la::Matrix& anchors,
    const AnchorGraphOptions& options = {});

/// The anchor row rule applied to one dense distance row: selects the s
/// nearest of the m squared distances in `d2` (ascending distance, ties keep
/// the smaller anchor index), then turns them into self-tuning Gaussian
/// weights exp(−d²/σ²), σ² = the s-th-nearest squared distance floored at
/// 1e-300, summed in rank order and scaled by the reciprocal of that sum,
/// stored in ascending anchor order — ready to drop into a CSR row.
/// `cols` and `weights` must hold s entries. Requires 1 ≤ s ≤ m.
void SelectAnchorRow(const double* d2, std::size_t m, std::size_t s,
                     std::size_t* cols, double* weights);

/// The one anchor-row kernel, which the training builder
/// (BuildAnchorAffinity), serving (mvsc::assign::AssignRows) and the
/// stream's row extension all run: SquaredDistanceTile of `rows`
/// standardized rows of `x` (row-major, stride d = anchors.packed.k)
/// against the m packed anchors, then SelectAnchorRow on each distance row.
/// Writes row i's s anchor columns and weights at cols/weights + i·s. A row
/// gets the same bits in a one-row call as in a taller tile, so every row
/// is a pure function of itself. Scratch (rows × m doubles) is per thread
/// and reused. Requires 1 ≤ s ≤ m.
void AnchorRowTile(const PackedRows& anchors, std::size_t s, const double* x,
                   std::size_t rows, std::size_t* cols, double* weights);

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_ANCHORS_H_
