#include "staged_fit.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/anchor_embedding.h"
#include "data/standardize.h"
#include "graph/anchors.h"
#include "harness.h"
#include "la/ops.h"
#include "la/sparse.h"
#include "mvsc/reduced_solve.h"

namespace perfbench {

using umvsc::la::CsrMatrix;
using umvsc::la::Matrix;

StagedFit RunStagedAnchorFit(const umvsc::data::MultiViewDataset& dataset,
                             const umvsc::mvsc::UnifiedOptions& options) {
  StagedFit out;
  const std::size_t num_views = dataset.NumViews();
  const std::size_t c = options.num_clusters;
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t per_view = options.anchors.basis_per_view > 0
                                   ? options.anchors.basis_per_view
                                   : c + 2;
  umvsc::mvsc::UnifiedResult result;

  std::vector<Matrix> embeddings(num_views);
  std::vector<CsrMatrix> zhat(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    Matrix x;
    {
      Span span("mvsc.standardize");
      umvsc::la::Vector means, inv_stds;
      umvsc::data::ColumnStandardization(dataset.views[v], &means, &inv_stds);
      x = umvsc::data::ApplyStandardization(dataset.views[v], means, inv_stds);
    }
    umvsc::StatusOr<Matrix> anchors = Matrix();
    {
      Span span("graph.select_anchors");
      umvsc::graph::AnchorOptions aopts;
      aopts.num_anchors = m;
      aopts.selection = options.anchors.selection;
      aopts.seed = options.seed + 211 * (v + 1);
      anchors = umvsc::graph::SelectAnchors(x, aopts);
    }
    if (!anchors.ok()) return out;
    umvsc::StatusOr<CsrMatrix> z = CsrMatrix();
    {
      Span span("graph.anchor_affinity");
      umvsc::graph::AnchorGraphOptions gopts;
      gopts.anchor_neighbors = options.anchors.anchor_neighbors;
      gopts.tile_rows = options.anchors.tile_rows;
      z = umvsc::graph::BuildAnchorAffinity(x, *anchors, gopts);
    }
    if (!z.ok()) return out;
    umvsc::StatusOr<umvsc::cluster::AnchorEmbeddingResult> emb =
        umvsc::cluster::AnchorEmbeddingResult();
    {
      Span span("cluster.anchor_embedding");
      umvsc::cluster::AnchorEmbeddingOptions eopts;
      eopts.dims = std::min(per_view, m);
      eopts.mode = options.block_lanczos;
      eopts.seed = options.seed + 17;
      eopts.matvec_count = &result.lanczos_matvecs;
      emb = umvsc::cluster::AnchorSpectralEmbedding(*z, eopts);
    }
    if (!emb.ok()) return out;
    {
      Span span("mvsc.column_normalize");
      const umvsc::la::Vector& mass = emb->anchor_mass;
      std::vector<std::size_t> offsets = z->row_offsets();
      std::vector<std::size_t> cols = z->col_indices();
      std::vector<double> vals = z->values();
      std::vector<double> inv_sqrt(z->cols(), 0.0);
      for (std::size_t j = 0; j < z->cols(); ++j) {
        inv_sqrt[j] = mass[j] > 0.0 ? 1.0 / std::sqrt(mass[j]) : 0.0;
      }
      for (std::size_t e = 0; e < vals.size(); ++e) {
        vals[e] *= inv_sqrt[cols[e]];
      }
      zhat[v] = CsrMatrix::FromParts(z->rows(), z->cols(), std::move(offsets),
                                     std::move(cols), std::move(vals));
      embeddings[v] = std::move(emb->embedding);
    }
  }

  umvsc::StatusOr<Matrix> basis = Matrix();
  {
    Span span("mvsc.joint_basis");
    const Matrix concat = umvsc::la::HConcat(embeddings);
    Matrix mix;
    basis = umvsc::mvsc::JointOrthonormalBasis(concat, c, &mix);
  }
  if (!basis.ok()) return out;

  std::vector<CsrMatrix> reduced(num_views);
  {
    Span span("mvsc.reduced_laplacians");
    const Matrix btb = umvsc::la::Gram(*basis);
    for (std::size_t v = 0; v < num_views; ++v) {
      const Matrix e = zhat[v].Transposed().Multiply(*basis);
      Matrix h = umvsc::la::Add(btb, umvsc::la::Gram(e), -1.0);
      h.Symmetrize();
      reduced[v] = CsrMatrix::FromDense(h);
    }
  }

  {
    Span span("mvsc.reduced_alternation");
    umvsc::mvsc::ReducedSolveControls controls;
    auto state = umvsc::mvsc::SolveReducedAlternation(reduced, *basis, options,
                                                      controls, &result);
    if (!state.ok()) return out;
  }
  out.ok = true;
  out.labels = std::move(result.labels);
  out.iterations = result.iterations;
  return out;
}

}  // namespace perfbench
