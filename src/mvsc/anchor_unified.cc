#include "mvsc/anchor_unified.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "cluster/anchor_embedding.h"
#include "common/check.h"
#include "data/standardize.h"
#include "graph/anchors.h"
#include "la/ops.h"
#include "mvsc/reduced_solve.h"

namespace umvsc::mvsc {

StatusOr<AnchorViewFit> FitAnchorView(la::Matrix x,
                                      const UnifiedOptions& options,
                                      std::uint64_t anchor_seed,
                                      bool standardize,
                                      std::size_t* matvec_count) {
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t per_view = options.anchors.basis_per_view > 0
                                   ? options.anchors.basis_per_view
                                   : options.num_clusters + 2;
  AnchorViewFit fit;
  if (standardize) {
    // data/standardize.h is the one shared z-scoring definition, so the
    // model's (means, inv_stds) map serve-time points into exactly the
    // feature space the anchors live in.
    data::ColumnStandardization(x, &fit.model.feature_means,
                                &fit.model.feature_inv_stds);
    data::ApplyStandardizationInPlace(x, fit.model.feature_means,
                                      fit.model.feature_inv_stds);
  } else {
    fit.model.feature_means = la::Vector(x.cols(), 0.0);
    fit.model.feature_inv_stds = la::Vector(x.cols(), 1.0);
  }

  graph::AnchorOptions aopts;
  aopts.num_anchors = m;
  aopts.selection = options.anchors.selection;
  aopts.seed = anchor_seed;
  StatusOr<la::Matrix> anchors = graph::SelectAnchors(x, aopts);
  if (!anchors.ok()) return anchors.status();

  graph::AnchorGraphOptions gopts;
  gopts.anchor_neighbors = options.anchors.anchor_neighbors;
  gopts.tile_rows = options.anchors.tile_rows;
  StatusOr<la::CsrMatrix> z = graph::BuildAnchorAffinity(x, *anchors, gopts);
  if (!z.ok()) return z.status();

  cluster::AnchorEmbeddingOptions eopts;
  eopts.dims = std::min(per_view, m);
  eopts.mode = options.block_lanczos;
  eopts.seed = options.seed + 17;
  eopts.matvec_count = matvec_count;
  StatusOr<cluster::AnchorEmbeddingResult> emb =
      cluster::AnchorSpectralEmbedding(*z, eopts);
  if (!emb.ok()) return emb.status();

  fit.model.anchors = std::move(*anchors);
  fit.model.anchor_map = std::move(emb->anchor_map);
  fit.z = std::move(*z);
  fit.embedding = std::move(emb->embedding);
  return fit;
}

StatusOr<AnchorUnifiedResult> SolveUnifiedAnchors(
    const data::MultiViewDataset& dataset, const UnifiedOptions& options,
    bool standardize) {
  UMVSC_RETURN_IF_ERROR(dataset.Validate());
  const std::size_t n = dataset.NumSamples();
  const std::size_t num_views = dataset.NumViews();
  const std::size_t c = options.num_clusters;
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t s = options.anchors.anchor_neighbors;
  UMVSC_RETURN_IF_ERROR(ValidateUnifiedOptions(options, /*anchored=*/true));
  if (c >= n) {
    return Status::InvalidArgument("UnifiedMVSC requires 2 <= c < n");
  }
  if (m >= n) {
    return Status::InvalidArgument(
        "anchor mode requires 2 <= num_anchors < n");
  }

  AnchorUnifiedResult out;
  out.model.anchor_neighbors = s;
  out.model.num_clusters = c;

  // --- Per-view anchor pipeline: anchors → bipartite Z → reduced embedding.
  // Serial over views (each inner kernel — panel fill, SpMM — is itself
  // pool-parallel and bitwise deterministic); per-view seeds are derived
  // from the run seed and the view index. Each embedding is copied into its
  // column block of concat = [U_1 | … | U_V] as soon as it is fitted, so no
  // second n × p_full copy ever coexists with the per-view blocks; every
  // view has FitAnchorView's width k_v = min(basis_per_view, m).
  la::Matrix concat;
  std::vector<la::CsrMatrix> z(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    StatusOr<AnchorViewFit> fit =
        FitAnchorView(dataset.views[v], options, options.seed + 211 * (v + 1),
                      standardize, &out.result.lanczos_matvecs);
    if (!fit.ok()) return fit.status();
    const la::Matrix& u = fit->embedding;
    const std::size_t k = u.cols();
    if (v == 0) concat = la::Matrix(n, num_views * k);
    UMVSC_CHECK(num_views * k == concat.cols(), "views differ in width k_v");
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(u.RowPtr(i), u.RowPtr(i) + k, concat.RowPtr(i) + v * k);
    }
    z[v] = std::move(fit->z);
    out.model.views.push_back(std::move(fit->model));
  }

  // --- Joint basis and reduced Laplacians H_v (reduced_solve.h — shared
  // with the streaming path, which builds them over its window). The
  // builder reads each Z_v's s-strided CSR arrays in place; z is released
  // as soon as it returns.
  std::vector<AnchorRows> rows(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    UMVSC_CHECK(z[v].NumNonZeros() == n * s, "anchor rows are not s-sparse");
    rows[v] = {z[v].col_indices().data(), z[v].values().data(), z[v].cols()};
  }
  StatusOr<ReducedProblem> problem =
      BuildReducedProblem(std::move(concat), s, rows, c);
  z.clear();
  if (!problem.ok()) return problem.status();

  // --- From here the solve is the exact path's alternation driver with
  // F = B·G: floors, warm-started init alternations and the G/R/Y/α blocks
  // run on the p × p reduced Laplacians; only the Y-step reconstructs n rows
  // (row-argmax of B·G·R) because labels are an n-point object. The stream
  // enters the same driver warm (reduced_solve.h); this batch path enters
  // cold — discretize-init plus final polish.
  ReducedSolveControls controls;  // no warm start: cold entry and polish
  StatusOr<ReducedSolveState> state = SolveReducedAlternation(
      problem->laplacians, problem->basis, options, controls, &out.result);
  if (!state.ok()) return state.status();

  out.model.assignment =
      la::MatMul(problem->mix, la::MatMul(state->g, state->rotation));
  out.model.mix = std::move(problem->mix);
  return out;
}

}  // namespace umvsc::mvsc
