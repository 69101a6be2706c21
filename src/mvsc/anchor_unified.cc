#include "mvsc/anchor_unified.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/anchor_embedding.h"
#include "data/standardize.h"
#include "graph/anchors.h"
#include "la/ops.h"
#include "mvsc/reduced_solve.h"

namespace umvsc::mvsc {

namespace {

// Scales each stored value of z by inv_sqrt_mass of its column: Ẑ = Z·Λ^{−1/2}
// on the unchanged sparsity pattern.
la::CsrMatrix NormalizeColumns(const la::CsrMatrix& z,
                               const la::Vector& mass) {
  la::Vector inv_sqrt(z.cols(), 0.0);
  for (std::size_t j = 0; j < z.cols(); ++j) {
    inv_sqrt[j] = mass[j] > 0.0 ? 1.0 / std::sqrt(mass[j]) : 0.0;
  }
  std::vector<std::size_t> offsets = z.row_offsets();
  std::vector<std::size_t> cols = z.col_indices();
  std::vector<double> vals = z.values();
  for (std::size_t e = 0; e < vals.size(); ++e) vals[e] *= inv_sqrt[cols[e]];
  return la::CsrMatrix::FromParts(z.rows(), z.cols(), std::move(offsets),
                                  std::move(cols), std::move(vals));
}

}  // namespace

StatusOr<AnchorUnifiedResult> SolveUnifiedAnchors(
    const data::MultiViewDataset& dataset, const UnifiedOptions& options,
    bool standardize) {
  UMVSC_RETURN_IF_ERROR(dataset.Validate());
  const std::size_t n = dataset.NumSamples();
  const std::size_t num_views = dataset.NumViews();
  const std::size_t c = options.num_clusters;
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t s = options.anchors.anchor_neighbors;
  const std::size_t per_view = options.anchors.basis_per_view > 0
                                   ? options.anchors.basis_per_view
                                   : c + 2;
  const std::size_t k_view = std::min(per_view, m);
  if (c < 2 || c >= n) {
    return Status::InvalidArgument("UnifiedMVSC requires 2 <= c < n");
  }
  if (m < 2 || m >= n) {
    return Status::InvalidArgument(
        "anchor mode requires 2 <= num_anchors < n");
  }
  if (s < 1 || s > m) {
    return Status::InvalidArgument(
        "anchor mode requires 1 <= anchor_neighbors <= num_anchors");
  }
  if (k_view < 1) {
    return Status::InvalidArgument("anchor basis_per_view must be >= 1");
  }
  if (options.beta < 0.0) {
    return Status::InvalidArgument("beta must be nonnegative");
  }
  if (options.weighting == ViewWeighting::kGammaPower &&
      options.gamma <= 1.0) {
    return Status::InvalidArgument("gamma-power weighting requires gamma > 1");
  }

  AnchorUnifiedResult out;
  out.model.anchor_neighbors = s;
  out.model.num_clusters = c;

  // --- Per-view anchor pipeline: anchors → bipartite Z → reduced embedding.
  // Serial over views (each inner kernel — panel fill, SpMM — is itself
  // pool-parallel and bitwise deterministic); per-view seeds are derived
  // from the run seed and the view index.
  std::vector<la::Matrix> embeddings(num_views);
  std::vector<la::CsrMatrix> zhat(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    AnchorViewModel view_model;
    la::Matrix x;
    if (standardize) {
      // data/standardize.h is the one shared z-scoring definition, so the
      // model's (means, inv_stds) map serve-time points into exactly the
      // feature space the anchors live in.
      data::ColumnStandardization(dataset.views[v], &view_model.feature_means,
                                  &view_model.feature_inv_stds);
      x = data::ApplyStandardization(dataset.views[v],
                                     view_model.feature_means,
                                     view_model.feature_inv_stds);
    } else {
      x = dataset.views[v];
      view_model.feature_means = la::Vector(x.cols(), 0.0);
      view_model.feature_inv_stds = la::Vector(x.cols(), 1.0);
    }

    graph::AnchorOptions aopts;
    aopts.num_anchors = m;
    aopts.selection = options.anchors.selection;
    aopts.seed = options.seed + 211 * (v + 1);
    StatusOr<la::Matrix> anchors = graph::SelectAnchors(x, aopts);
    if (!anchors.ok()) return anchors.status();

    graph::AnchorGraphOptions gopts;
    gopts.anchor_neighbors = s;
    gopts.tile_rows = options.anchors.tile_rows;
    StatusOr<la::CsrMatrix> z = graph::BuildAnchorAffinity(x, *anchors, gopts);
    if (!z.ok()) return z.status();

    cluster::AnchorEmbeddingOptions eopts;
    eopts.dims = k_view;
    eopts.mode = options.block_lanczos;
    eopts.seed = options.seed + 17;
    eopts.matvec_count = &out.result.lanczos_matvecs;
    StatusOr<cluster::AnchorEmbeddingResult> emb =
        cluster::AnchorSpectralEmbedding(*z, eopts);
    if (!emb.ok()) return emb.status();

    embeddings[v] = std::move(emb->embedding);
    zhat[v] = NormalizeColumns(*z, emb->anchor_mass);
    view_model.anchors = std::move(*anchors);
    view_model.anchor_map = std::move(emb->anchor_map);
    out.model.views.push_back(std::move(view_model));
  }

  // --- Joint orthonormal basis B = [U_1 | … | U_V]·mix over the Gram
  // eigendecomposition (reduced_solve.h — shared with the streaming path,
  // which rebuilds the basis over its window with the same truncation).
  const la::Matrix concat = la::HConcat(embeddings);
  embeddings.clear();
  la::Matrix mix;
  StatusOr<la::Matrix> basis_or =
      JointOrthonormalBasis(concat, c, &mix);
  if (!basis_or.ok()) return basis_or.status();
  const la::Matrix basis = std::move(*basis_or);

  // --- Reduced per-view Laplacians H_v = BᵀL_vB = BᵀB − E_vᵀE_v with
  // E_v = Ẑ_vᵀB (m × p, one transposed SpMM — O(n·s·p), never an n × n
  // Laplacian). Symmetrized and stored as p × p CSR so the exact path's
  // combiner, eigensolves, GPI, and trace kernels apply unchanged. The
  // spectrum lies in [0, 1] up to basis rounding (Z row-stochastic).
  const la::Matrix btb = la::Gram(basis);
  std::vector<la::CsrMatrix> reduced(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    const la::Matrix e = zhat[v].Transposed().Multiply(basis);
    la::Matrix h = la::Add(btb, la::Gram(e), -1.0);
    h.Symmetrize();
    reduced[v] = la::CsrMatrix::FromDense(h);
  }
  zhat.clear();

  // --- From here the solve IS unified.cc's, with F = B·G: the same floors,
  // warm-started init alternations, and G/R/Y/α blocks run on the p × p
  // reduced Laplacians; only the Y-step reconstructs n rows (row-argmax of
  // B·G·R) because labels are an n-point object. The alternation itself is
  // shared with the streaming updater (reduced_solve.h); this batch path
  // enters cold — discretize-init plus final polish.
  ReducedSolveControls controls;  // defaults: cold entry, polish on
  StatusOr<ReducedSolveState> state =
      SolveReducedAlternation(reduced, basis, options, controls, &out.result);
  if (!state.ok()) return state.status();

  out.model.mix = mix;
  out.model.assignment =
      la::MatMul(mix, la::MatMul(state->g, state->rotation));
  return out;
}

}  // namespace umvsc::mvsc
