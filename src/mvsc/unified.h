#ifndef UMVSC_MVSC_UNIFIED_H_
#define UMVSC_MVSC_UNIFIED_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/anchors.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "mvsc/graphs.h"

namespace umvsc::mvsc {

/// How per-view smoothness h_v = Tr(Fᵀ L_v F) enters the weight update.
enum class SmoothnessNormalization {
  /// Raw h_v (the textbook update). Vulnerable to intrinsically fragmented
  /// graphs: a view whose Laplacian has many near-zero eigenvalues looks
  /// spuriously "smooth" and soaks up weight even when uninformative.
  kAbsolute,
  /// Excess smoothness h_v − ĉ_v, with ĉ_v the sum of L_v's c smallest
  /// eigenvalues (that view's own optimum). Since ĉ_v is constant in F,
  /// the F-step is unchanged; only the α-step becomes scale-invariant
  /// across views. Markedly more robust to corrupted or degenerate views.
  kExcess,
};

/// View-weighting scheme of the unified model.
enum class ViewWeighting {
  /// α_v^γ coefficients with the closed-form update
  /// α_v ∝ h_v^{1/(1−γ)}, h_v = Tr(Fᵀ L_v F); γ > 1 controls smoothness.
  kGammaPower,
  /// Parameter-free AMGL self-weighting w_v = 1/(2√h_v).
  kAmgl,
  /// Fixed uniform weights (ablation).
  kUniform,
};

/// The large-scale anchor mode of the unified solver (off by default: the
/// exact path is untouched — byte-identical results — whenever `enabled` is
/// false). When enabled, Run(dataset) replaces the O(n²) per-view graphs
/// with m-anchor bipartite affinities and runs every eigensolve and every
/// F/R/α update in the reduced space they span (see anchor_unified.h);
/// per-iteration work linear in n remains only at label-assignment time.
struct UnifiedAnchorOptions {
  /// Master switch. Requires the feature-level Run(dataset) entry point —
  /// Run(graphs) has no features to select anchors from and reports
  /// InvalidArgument when this is set.
  bool enabled = false;
  /// Anchors m per view (m ≪ n; cost grows as O(n·m·d + n·s²) per view).
  std::size_t num_anchors = 256;
  /// Nonzeros per bipartite row s (graph::AnchorGraphOptions).
  std::size_t anchor_neighbors = 5;
  /// Reduced directions kept per view; 0 means num_clusters + 2 (a small
  /// cushion beyond c lets the joint basis disambiguate clusters that one
  /// view alone blurs).
  std::size_t basis_per_view = 0;
  graph::AnchorSelection selection = graph::AnchorSelection::kKmeansppRefine;
  /// Row-tile height of the bipartite builder panels (memory knob only;
  /// results are bitwise identical at every setting).
  std::size_t tile_rows = 128;
};

/// Options for the unified one-stage multi-view spectral clustering solver.
struct UnifiedOptions {
  std::size_t num_clusters = 2;
  /// Weight of the discretization term β·‖Ŷ − F·R‖²_F.
  double beta = 1.0;
  /// Exponent of the γ-power view weighting (> 1). Ignored by other modes.
  double gamma = 2.0;
  ViewWeighting weighting = ViewWeighting::kGammaPower;
  SmoothnessNormalization smoothness = SmoothnessNormalization::kAbsolute;
  /// Outer alternating iterations.
  std::size_t max_iterations = 50;
  /// Relative objective-change stopping threshold.
  double tolerance = 1e-6;
  /// Column-normalize the indicator (scaled indicator Ŷ) in the
  /// discretization term, as in Yu–Shi.
  bool scale_indicator = true;
  /// Warm-start alternations (fresh eigensolve ↔ weight update, no discrete
  /// coupling) before the joint loop. Without this, a bad uniform-average
  /// embedding can lock the Y↔F alternation into a poor fixed point.
  std::size_t init_alternations = 4;
  /// Seed each init-alternation eigensolve from the previous alternation's
  /// embedding (la::LanczosOptions::warm_start). The combined Laplacian
  /// changes only as much as the view weights do between alternations, so
  /// the previous eigenvectors nearly span the new eigenspace and Lanczos
  /// converges in a smaller subspace — fewer matvecs, same clustering.
  /// Disable to reproduce fully cold solves (e.g. for A/B measurements).
  bool warm_start = true;
  /// Eigensolver routing for every eigensolve of the run (spectral floors
  /// + init alternations). kAuto (the default) picks by the cluster count
  /// (block iff c ≥ 16, la::ResolveEigensolveMode): the block solver
  /// iterates on n × c panels — one SpMM per operator application instead
  /// of c memory-bound matvecs, warm starts entering the first panel
  /// column-per-column — while the single-vector solver's tridiagonal
  /// Rayleigh–Ritz is cheaper at small c. Force either path to A/B them;
  /// both yield the same eigenpairs to solver tolerance (identical
  /// partitions, ARI 1.0 — la_policy_test pins this).
  la::EigensolveMode block_lanczos = la::EigensolveMode::kAuto;
  /// Large-scale anchor mode (disabled by default — see UnifiedAnchorOptions).
  UnifiedAnchorOptions anchors;
  std::uint64_t seed = 0;
};

/// Result of the unified solver. The labels come directly from the learned
/// discrete indicator — no K-means anywhere.
struct UnifiedResult {
  std::vector<std::size_t> labels;
  la::Matrix indicator;       ///< learned discrete Y (n × c, one 1 per row)
  la::Matrix embedding;       ///< continuous F (n × c, orthonormal columns)
  la::Matrix rotation;        ///< learned rotation R (c × c, orthogonal)
  std::vector<double> view_weights;      ///< final α (normalized to sum 1)
  std::vector<double> objective_trace;   ///< objective after each outer iter
  /// Weighted smoothness Σ_v α_v^γ·Tr(FᵀL_vF) after each warm-start
  /// alternation (the joint objective is undefined before Y and R exist).
  std::vector<double> warmup_trace;
  std::size_t iterations = 0;
  bool converged = false;
  /// Total Lanczos operator applications (matvecs) across every eigensolve
  /// of the run — spectral floors plus all init alternations. Warm starting
  /// shows up here as a drop at unchanged clustering output.
  std::size_t lanczos_matvecs = 0;
};

/// The paper's unified one-stage multi-view spectral clustering:
///
///   min_{F,R,Y,α}  Σ_v α_v^γ·Tr(Fᵀ L_v F) + β·‖Ŷ − F·R‖²_F
///   s.t. FᵀF = I, RᵀR = I, Y ∈ Ind, α ∈ Δ_V,
///
/// solved by four-block alternating minimization (GPI F-step, Procrustes
/// R-step, row-argmax Y-step, closed-form α-step). See DESIGN.md for the
/// derivation and provenance of each block. The exact and the anchor path
/// run the same alternation driver (mvsc/reduced_solve.h); the exact one
/// without a basis, F = G.
class UnifiedMVSC {
 public:
  explicit UnifiedMVSC(UnifiedOptions options) : options_(options) {}

  /// Runs the solver on prebuilt per-view graphs (the shared-graph protocol
  /// of the benchmark harness). The per-view smoothness terms Tr(FᵀL_vF),
  /// the spectral floors, and the objective evaluation fan out across views
  /// on the global thread pool (common/parallel.h); given a fixed seed, the
  /// labels, embedding, and objective trace are bitwise identical at every
  /// UMVSC_NUM_THREADS setting. Run() is const and thread-safe: concurrent
  /// calls on different graphs simply share the pool.
  StatusOr<UnifiedResult> Run(const MultiViewGraphs& graphs) const;

  /// Convenience: builds graphs from raw features, then runs. When
  /// options().anchors.enabled is set, this routes to the reduced anchor
  /// path instead (SolveUnifiedAnchors in anchor_unified.h) — near-linear
  /// in n — honoring graph_options.standardize for the feature
  /// preprocessing; the remaining graph options are exact-path-only.
  StatusOr<UnifiedResult> Run(const data::MultiViewDataset& dataset,
                              const GraphOptions& graph_options = {}) const;

  const UnifiedOptions& options() const { return options_; }

 private:
  UnifiedOptions options_;
};

/// Checks the solver options every unified entry point shares — c ≥ 2,
/// β ≥ 0, γ > 1 under kGammaPower — and, when `anchored`, the anchor
/// counts 2 ≤ num_anchors and 1 ≤ anchor_neighbors ≤ num_anchors. Bounds
/// that need the sample count (c < n, num_anchors < n) stay with the
/// callers that know it. Run(graphs), SolveUnifiedAnchors and the
/// streaming solver (Create, SetNumClusters) all call it.
Status ValidateUnifiedOptions(const UnifiedOptions& options, bool anchored);

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_UNIFIED_H_
