#ifndef UMVSC_STREAM_STREAMING_UNIFIED_H_
#define UMVSC_STREAM_STREAMING_UNIFIED_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "graph/anchors.h"
#include "la/matrix.h"
#include "mvsc/anchor_assign.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/unified.h"

namespace umvsc::stream {

/// Options of the streaming unified solver. `unified` carries the model
/// hyperparameters (clusters, β/γ/weighting, anchor counts) exactly as the
/// batch anchor path reads them; `unified.anchors.enabled` is ignored —
/// streaming IS the anchor path.
struct StreamingOptions {
  mvsc::UnifiedOptions unified;

  /// Sliding-window length in points. Once full, every ingested point
  /// evicts the oldest one — the model always describes the most recent
  /// `window_capacity` points.
  std::size_t window_capacity = 5000;

  /// Incremental updates enter the reduced alternation warm (carried
  /// G/R/α seed, one init alternation and at most 8 outer iterations, no
  /// polish). When false the same frozen-model incremental pipeline runs
  /// but every update enters COLD with the full batch budgets — the A/B
  /// baseline the warm-vs-cold parity test measures against.
  bool warm_updates = true;

  /// Oracle mode: every Ingest runs a full cold re-solve (no incremental
  /// path at all). This is the reference the drift bench compares
  /// cumulative ARI and latency against.
  bool always_full_resolve = false;
};

/// What one Ingest did and what came out of it.
struct StreamingUpdateResult {
  /// Labels of every point currently in the window, oldest first.
  std::vector<std::size_t> labels;
  std::size_t window_size = 0;
  /// Points evicted from the front of the window by this batch.
  std::size_t evicted = 0;
  /// True when this Ingest ran a full re-solve (first batch, oracle mode,
  /// a pending cluster-count change, or a drift trigger — see reason).
  bool full_resolve = false;
  /// "", "first-batch", "oracle", "cluster-count-change",
  /// "drift:objective", or "drift:view-smoothness".
  std::string resolve_reason;
  /// Unified objective and per-view smoothness of the final state — the
  /// same quantities the drift detector monitors.
  double objective = 0.0;
  std::vector<double> view_smoothness;
  std::vector<double> view_weights;
  /// Lanczos operator applications spent by this Ingest (warm update plus
  /// the full re-solve when one triggered).
  std::size_t lanczos_matvecs = 0;
};

/// Streaming multi-view spectral clustering over a sliding window, built on
/// the SAME reduced-space machinery as the batch anchor path
/// (mvsc/reduced_solve.h):
///
///   full solve    re-select anchors and re-fit the standardization from
///                 the window's raw features through the batch solver's
///                 per-view fit (mvsc::FitAnchorView), build the joint basis
///                 and reduced Laplacians with its builder
///                 (mvsc::BuildReducedProblem), then the cold alternation.
///                 The first full solve of a one-batch window is bitwise
///                 SolveUnifiedAnchors on that batch (labels, weights,
///                 objective, matvecs — stream_unified_test
///                 FirstFullSolveMatchesSolveUnifiedAnchors); later ones
///                 advance the anchor seed by 10007 per full solve.
///   incremental   the per-view model (anchors, standardization,
///                 anchor_map) stays FROZEN — the degree normalization is
///                 recomputed from the live window; new points extend
///                 through the anchor-assignment kernel that serving runs
///                 (mvsc/anchor_assign.h: fixed row tiles under
///                 ParallelFor, O(m·d + s·k) per point and view), window
///                 rows append/evict in O(1) amortized on flat
///                 uniform-stride arrays (no CSR rebuild), the joint basis
///                 and reduced Laplacians are recomputed over the window
///                 (linear in window size, the builder reading the flat
///                 anchor rows in place rather than a copy), and the
///                 alternation re-enters WARM from the carried (G, R, α)
///                 with small iteration budgets.
///   drift         the unified objective and per-view smoothness h_v are
///                 compared to their values at the last full solve; growth
///                 past the tolerances triggers a full re-solve (with
///                 anchor re-selection from the retained raw features).
///
/// Determinism: every kernel underneath is bitwise deterministic across
/// thread counts, the row extension follows the serving determinism
/// contract (docs/SERVING.md), and batch composition is caller-controlled —
/// so labels, objectives, and drift triggers are bitwise identical at every
/// UMVSC_NUM_THREADS setting.
class StreamingUnifiedMVSC {
 public:
  /// Rejects what the batch solvers reject (mvsc::ValidateUnifiedOptions,
  /// anchored) plus a window capacity below 2.
  static StatusOr<StreamingUnifiedMVSC> Create(const StreamingOptions& options);

  /// Ingests one mini-batch (same views/dims on every call). Appends the
  /// batch to the window, evicts overflow, and re-solves — incrementally,
  /// or fully when this is the first batch / oracle mode / a trigger fired.
  StatusOr<StreamingUpdateResult> Ingest(const data::MultiViewDataset& batch);

  /// Changes the cluster count for all subsequent batches. Forces a full
  /// re-solve on the next Ingest; every derived dimension — including the
  /// basis_per_view=0 default resolution (num_clusters + 2) — is re-derived
  /// there from the new count, never served from a stale cache.
  Status SetNumClusters(std::size_t num_clusters);

  std::size_t window_size() const { return rows_; }
  std::size_t full_resolves() const { return full_resolves_; }
  std::size_t incremental_updates() const { return incremental_updates_; }
  const std::vector<std::size_t>& window_labels() const { return labels_; }
  /// Reduced dims of view v in the CURRENT frozen model — read off the
  /// anchor_map artifact itself (its column count), so it can never go
  /// stale relative to what the solver actually uses.
  std::size_t view_basis_dims(std::size_t view) const;
  const StreamingOptions& options() const { return options_; }

 private:
  StreamingUnifiedMVSC() = default;

  /// Frozen per-view model plus that view's slice of the window, stored as
  /// flat arrays with one uniform stride per array so eviction is a head
  /// advance and appending is a push_back — never a CSR rebuild.
  struct ViewState {
    std::size_t dim = 0;             ///< raw feature count (fixed at batch 1)
    mvsc::AnchorViewModel model;     ///< frozen standardization, anchors,
                                     ///< and anchor_map (m × k_v)
    graph::PackedRows packed_anchors;  ///< ‖a_j‖², packed anchors
    std::vector<double> raw;         ///< stride dim — RAW rows (for re-solve)
    std::vector<std::size_t> z_cols; ///< stride s — anchor row indices
    std::vector<double> z_vals;      ///< stride s — anchor row weights
    std::vector<double> u;           ///< stride k_v — embedding rows
  };

  Status CheckBatch(const data::MultiViewDataset& batch) const;
  void AppendRaw(const data::MultiViewDataset& batch);
  /// Extends the frozen model to rows [first_row, rows_) of the window:
  /// grows z_cols/z_vals/u by those rows and fills them with
  /// mvsc::assign::AssignRows (standardize → z row → u = z·anchor_map).
  void ExtendRows(std::size_t first_row);
  void Evict(std::size_t count);
  /// Erases the dead head_ rows from every flat array and resets head_ to 0.
  /// Each erase is clamped to the array's actual length: on Ingest's full
  /// path the model arrays (z_cols/z_vals/u) lag `raw` by the just-appended
  /// batch (ExtendRows is skipped there — FullResolve refits every row), so
  /// head_ rows may exceed what a lagging array holds.
  void CompactWindow();
  /// Basis + reduced Laplacians over the current window, the builder
  /// reading the flat z_cols/z_vals rows in place
  /// (mvsc::BuildReducedProblem); then one reduced alternation. `warm`
  /// enters from the carried (G, R, α); a cold entry ends with the final
  /// (Y, R) polish.
  Status SolveWindow(const mvsc::UnifiedOptions& solve_options, bool warm,
                     StreamingUpdateResult* out);
  Status FullResolve(const std::string& reason, StreamingUpdateResult* out);
  Status IncrementalUpdate(StreamingUpdateResult* out);

  StreamingOptions options_;
  std::vector<ViewState> views_;
  std::size_t head_ = 0;  ///< front offset (rows) shared by all flat arrays
  std::size_t rows_ = 0;  ///< live rows in the window
  bool model_ready_ = false;
  bool pending_full_resolve_ = false;
  std::string pending_reason_;
  std::size_t full_resolves_ = 0;
  std::size_t incremental_updates_ = 0;

  // Carried state of the last solve (the warm-start payload) and the drift
  // baselines of the last FULL solve.
  la::Matrix extend_;    ///< p_full × c: F row = concat row · extend_
  la::Matrix rotation_;  ///< c × c
  std::vector<double> weight_coefficients_;
  std::vector<std::size_t> labels_;
  double baseline_objective_ = 0.0;
  std::vector<double> baseline_smoothness_;
};

}  // namespace umvsc::stream

#endif  // UMVSC_STREAM_STREAMING_UNIFIED_H_
