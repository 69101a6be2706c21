#include "mvsc/reduced_solve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/gpi.h"
#include "cluster/rotation.h"
#include "la/gemm_kernel.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/svd.h"
#include "la/sym_eigen.h"
#include "mvsc/graphs.h"
#include "mvsc/unified_internal.h"

namespace umvsc::mvsc {

StatusOr<la::Matrix> JointOrthonormalBasis(const la::Matrix& concat,
                                           std::size_t min_rank,
                                           la::Matrix* mix_out) {
  UMVSC_CHECK(mix_out != nullptr, "mix sink is required");
  const std::size_t p_full = concat.cols();
  const la::Matrix gram = la::Gram(concat);
  StatusOr<la::SymEigenResult> gram_eig = la::SymmetricEigen(gram);
  if (!gram_eig.ok()) return gram_eig.status();
  double max_gram = 0.0;
  for (std::size_t j = 0; j < p_full; ++j) {
    max_gram = std::max(max_gram, gram_eig->eigenvalues[j]);
  }
  const double gram_tol = 1e-10 * std::max(max_gram, 1.0);
  std::vector<std::size_t> kept;
  for (std::size_t j = p_full; j > 0; --j) {  // descending eigenvalue order
    if (gram_eig->eigenvalues[j - 1] > gram_tol) kept.push_back(j - 1);
  }
  const std::size_t p = kept.size();
  if (p < min_rank) {
    return Status::InvalidArgument(
        "anchor basis rank fell below the cluster count; raise num_anchors "
        "or basis_per_view");
  }
  la::Matrix mix(p_full, p);
  for (std::size_t t = 0; t < p; ++t) {
    const std::size_t j = kept[t];
    const double inv_sqrt = 1.0 / std::sqrt(gram_eig->eigenvalues[j]);
    for (std::size_t r = 0; r < p_full; ++r) {
      mix(r, t) = gram_eig->eigenvectors(r, j) * inv_sqrt;
    }
  }
  la::Matrix basis = la::MatMul(concat, mix);  // n × p, BᵀB ≈ I
  *mix_out = std::move(mix);
  return basis;
}

StatusOr<ReducedProblem> BuildReducedProblem(
    la::Matrix concat, std::size_t s, const std::vector<AnchorRows>& views,
    std::size_t num_clusters) {
  const std::size_t n = concat.rows();
  ReducedProblem out;
  StatusOr<la::Matrix> basis =
      JointOrthonormalBasis(concat, num_clusters, &out.mix);
  if (!basis.ok()) return basis.status();
  out.basis = std::move(*basis);
  concat = la::Matrix();  // the basis was its last use
  const std::size_t p = out.basis.cols();
  const la::Matrix btb = la::Gram(out.basis);
  out.laplacians.resize(views.size());
  std::vector<double> inv_sqrt;
  for (std::size_t v = 0; v < views.size(); ++v) {
    const AnchorRows& z = views[v];
    // Λ = diag(column masses of Z), accumulated serially in storage order
    // (AnchorSpectralEmbedding's rule); Ẑ = Z·Λ^{−1/2} is never stored.
    inv_sqrt.assign(z.num_anchors, 0.0);
    for (std::size_t t = 0; t < n * s; ++t) inv_sqrt[z.cols[t]] += z.vals[t];
    for (double& mass : inv_sqrt) {
      mass = mass > 0.0 ? 1.0 / std::sqrt(mass) : 0.0;
    }
    // E = ẐᵀB as one scatter in row order: each E row sees its rows'
    // unfused v·b adds in ascending row order, exactly as the SpMM of the
    // transposed Ẑ accumulates them.
    la::Matrix e(z.num_anchors, p);
    for (std::size_t i = 0; i < n; ++i) {
      const double* b_row = out.basis.RowPtr(i);
      for (std::size_t t = i * s; t < (i + 1) * s; ++t) {
        const std::size_t col = z.cols[t];
        la::kernel::Axpy(z.vals[t] * inv_sqrt[col], b_row, e.RowPtr(col), p);
      }
    }
    la::Matrix h = la::Add(btb, la::Gram(e), -1.0);
    h.Symmetrize();
    out.laplacians[v] = la::CsrMatrix::FromDense(h);
  }
  return out;
}

namespace internal {
namespace {

// Inner GPI iterations of each G-step (warm-started from the incumbent G).
constexpr std::size_t kGpiIterations = 30;

}  // namespace

Status SolveAlternation(const std::vector<la::CsrMatrix>& laplacians,
                        const la::Matrix* basis, const UnifiedOptions& options,
                        const ReducedSolveControls& controls,
                        UnifiedResult* result, ReducedSolveState* state) {
  UMVSC_CHECK(result != nullptr, "result sink is required");
  const std::size_t num_views = laplacians.size();
  const std::size_t c = options.num_clusters;
  if (num_views == 0) {
    return Status::InvalidArgument("the alternation needs at least one view");
  }
  // p: the dimension G lives in — the basis width, or n on the exact path.
  const std::size_t p =
      basis != nullptr ? basis->cols() : laplacians[0].rows();
  for (const la::CsrMatrix& h : laplacians) {
    if (h.rows() != p || h.cols() != p) {
      return Status::InvalidArgument(
          "view Laplacian shape does not match the basis");
    }
  }
  if (p < c) {
    return Status::InvalidArgument(
        "reduced dimension fell below the cluster count");
  }

  la::LanczosOptions lanczos;
  lanczos.seed = options.seed + 17;
  lanczos.max_subspace = std::min(p, std::max<std::size_t>(12 * c + 100, 250));
  lanczos.tolerance = 3e-6;
  std::vector<double> floors(num_views, 0.0);
  if (options.smoothness == SmoothnessNormalization::kExcess) {
    StatusOr<std::vector<double>> spectral =
        SpectralFloors(laplacians, c, lanczos, options.block_lanczos,
                       &result->lanczos_matvecs);
    if (!spectral.ok()) return spectral.status();
    floors = std::move(*spectral);
  }

  // Warm-start validity: every piece is checked against the CURRENT shapes.
  // A stale piece (p changed after an anchor re-selection, c changed after
  // a cluster-count update) silently degrades that piece to cold instead of
  // erroring — the caller asked for the best available start, not a crash.
  const ReducedWarmStart* warm = controls.warm;
  const bool warm_g = warm != nullptr && warm->g.rows() == p &&
                      warm->g.cols() == c;
  const bool warm_rotation = warm != nullptr && warm->rotation.rows() == c &&
                             warm->rotation.cols() == c;
  const bool warm_weights =
      warm != nullptr && warm->weight_coefficients.size() == num_views;

  // --- Initialization: a few weight↔embedding alternations (fresh
  // eigensolves, no discrete coupling). A single embedding of the uniform
  // average is fragile — one adversarial view can wreck it, and the Y↔G
  // alternation below would then lock onto the bad partition. The
  // alternations let the auto-weighting suppress such views first.
  Weights weights;
  if (warm_weights) {
    weights.coefficients = warm->weight_coefficients;
  } else {
    weights.coefficients.assign(num_views,
                                1.0 / static_cast<double>(num_views));
  }
  la::Matrix g;
  if (warm_g) g = warm->g;
  // The Laplacians are fixed for the whole solve, so the union sparsity
  // pattern of their weighted combinations is too: plan it once, and every
  // alternation/iteration below refreshes values only.
  const la::CsrCombiner combiner = la::CsrCombiner::Plan(laplacians);
  const std::size_t warmups =
      std::max<std::size_t>(1, options.init_alternations);
  for (std::size_t iter = 0; iter < warmups; ++iter) {
    la::CsrMatrix combined = combiner.Combine(laplacians, weights.coefficients);
    // Incomplete views' zero rows need this; it would move H_v's eigenvectors.
    if (basis == nullptr) combined = MassNormalizedCombination(combined);
    la::LanczosOptions warm_lanczos = lanczos;
    warm_lanczos.matvec_count = &result->lanczos_matvecs;
    if (options.warm_start && g.rows() == p && g.cols() == c) {
      // Seed from the previous alternation's embedding: the combined
      // Laplacian moved only as far as the view weights did.
      warm_lanczos.warm_start = &g;
    }
    StatusOr<la::SymEigenResult> init_eig = la::LanczosSmallestAuto(
        combined, c, cluster::GershgorinUpperBound(combined) + 1e-9,
        warm_lanczos, options.block_lanczos);
    if (!init_eig.ok()) return init_eig.status();
    g = std::move(init_eig->eigenvectors);
    const std::vector<double> h = ViewSmoothness(laplacians, g, floors);
    weights = UpdateWeights(h, options.weighting, options.gamma);
    double smoothness = 0.0;
    for (std::size_t v = 0; v < num_views; ++v) {
      smoothness += weights.coefficients[v] * h[v];
    }
    result->warmup_trace.push_back(smoothness);
  }

  // F = B·G, the n × c embedding the Y-step discretizes; without a basis F
  // is G itself. The Y-step forms F's rows itself and keeps none, so
  // f_rows is formed only where F is read whole: the initial rotation
  // search, and after the loop.
  la::Matrix f_rows;
  const la::Matrix& f = basis != nullptr ? f_rows : g;
  // The Y-step's buffers: Ŷ, the labels, and the reduced image P = BᵀŶ
  // (p × c) — the ONLY coupling the G- and R-steps need from the n-row
  // indicator; without a basis P is Ŷ itself and no projection is formed.
  cluster::YStepBuffers ystep;
  cluster::YStepOptions step_options;
  step_options.scale_indicator = options.scale_indicator;
  step_options.repair_empty = true;
  step_options.project = basis != nullptr;
  const la::Matrix& p_red = basis != nullptr ? ystep.proj : ystep.y_hat;
  // Labels are an n-point object, so the row-argmax of F·R must see n
  // rows: one fused pass forms F·R, the labels, Ŷ, the objective's
  // residual ‖Ŷ − F·R‖_F and P.
  la::Matrix rotation;
  auto y_step = [&] {
    return cluster::YStep(basis != nullptr ? *basis : g,
                          basis != nullptr ? &g : nullptr, rotation,
                          step_options, ystep);
  };

  // Objective of the current iterate. On the reduced path the traces
  // Tr(GᵀH_vG) equal Tr(FᵀL_vF); the residual is evaluated on the n rows.
  auto objective = [&](const la::Matrix& rot, const la::Matrix& y_hat_cur) {
    const double residual =
        la::Add(y_hat_cur, la::MatMul(f, rot), -1.0).FrobeniusNorm();
    return ObjectiveFromResidual(laplacians, weights.coefficients,
                                 options.beta, g, residual);
  };

  if (warm_rotation) {
    // Warm entry: the carried rotation is already at (or near) the previous
    // solve's fixed point — the indicator falls straight out of a row-argmax
    // pass, no restart search.
    rotation = warm->rotation;
    y_step();
  } else {
    cluster::RotationOptions rot_init;
    rot_init.seed = options.seed + 31;
    rot_init.restarts = 8;
    rot_init.scale_indicator = options.scale_indicator;
    if (basis != nullptr) f_rows = la::MatMul(*basis, g);
    StatusOr<cluster::RotationResult> init_disc =
        cluster::DiscretizeEmbedding(f, rot_init);
    if (!init_disc.ok()) return init_disc.status();
    rotation = std::move(init_disc->rotation);
    ystep.labels = std::move(init_disc->labels);
    ystep.y_hat = options.scale_indicator
                      ? cluster::ScaledIndicator(init_disc->indicator)
                      : std::move(init_disc->indicator);
    if (basis != nullptr) ystep.proj = la::MatTMul(*basis, ystep.y_hat);
  }

  // Per-iteration temporaries, shaped once: the Into-style producers
  // overwrite them every iteration.
  la::Matrix b(p, c);          // G-step right-hand side β·P·Rᵀ
  la::Matrix ctc(c, c);        // R-step Procrustes input GᵀP
  double prev_obj = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // --- G-step: min Tr(GᵀAG) − 2β·Tr(Gᵀ P Rᵀ) on the p-dim Stiefel
    // manifold — the F-step, compressed through F = B·G when there is a
    // basis. Warm-started from the incumbent G.
    la::CsrMatrix a = combiner.Combine(laplacians, weights.coefficients);
    la::MatMulTInto(p_red, rotation, b);
    b.Scale(options.beta);
    cluster::GpiOptions gpi;
    gpi.max_iterations = kGpiIterations;
    StatusOr<cluster::GpiResult> gstep =
        cluster::GeneralizedPowerIteration(a, b, g, gpi);
    if (!gstep.ok()) return gstep.status();
    g = std::move(gstep->f);

    // --- R-step: Procrustes on FᵀŶ = GᵀP (c × c — no n-row pass).
    la::MatTMulInto(g, p_red, ctc);
    StatusOr<la::Matrix> rstep = la::ProcrustesRotation(ctc);
    if (!rstep.ok()) return rstep.status();
    rotation = std::move(*rstep);

    // --- Y-step: the one n-row pass per iteration.
    const double residual = y_step();

    // --- α-step: closed form from the fresh smoothness values.
    weights = UpdateWeights(ViewSmoothness(laplacians, g, floors),
                            options.weighting, options.gamma);

    const double obj = ObjectiveFromResidual(
        laplacians, weights.coefficients, options.beta, g, residual);
    result->objective_trace.push_back(obj);
    result->iterations = iter + 1;
    if (iter > 0 &&
        std::fabs(prev_obj - obj) <=
            options.tolerance * std::max(std::fabs(prev_obj), 1e-12)) {
      result->converged = true;
      break;
    }
    prev_obj = obj;
  }

  if (basis != nullptr) f_rows = la::MatMul(*basis, g);

  if (controls.warm == nullptr) {
    // Final polish of a cold entry: re-search (Y, R) for the converged F
    // with fresh rotation restarts — the alternation only ever refined the
    // incumbent rotation, and a restarted search occasionally finds a
    // strictly better discretization. Accepted only when the full objective
    // improves.
    cluster::RotationOptions rot_final;
    rot_final.seed = options.seed + 97;
    rot_final.restarts = 8;
    rot_final.scale_indicator = options.scale_indicator;
    StatusOr<cluster::RotationResult> polished =
        cluster::DiscretizeEmbedding(f, rot_final);
    if (polished.ok()) {
      la::Matrix polished_y_hat =
          options.scale_indicator ? cluster::ScaledIndicator(polished->indicator)
                                  : polished->indicator;
      const double incumbent = objective(rotation, ystep.y_hat);
      const double candidate = objective(polished->rotation, polished_y_hat);
      if (candidate < incumbent) {
        rotation = std::move(polished->rotation);
        ystep.labels = std::move(polished->labels);
        ystep.y_hat = std::move(polished_y_hat);
      }
    }
  }

  if (state != nullptr) {
    state->objective = objective(rotation, ystep.y_hat);
    state->smoothness = ViewSmoothness(laplacians, g, floors);
    state->g = g;
    state->rotation = rotation;
    state->weight_coefficients = weights.coefficients;
  }

  result->indicator = cluster::LabelsToIndicator(ystep.labels, c);
  result->labels = std::move(ystep.labels);
  result->embedding = basis != nullptr ? std::move(f_rows) : std::move(g);
  result->rotation = std::move(rotation);
  result->view_weights = std::move(weights.alpha);
  return Status::OK();
}

}  // namespace internal

StatusOr<ReducedSolveState> SolveReducedAlternation(
    const std::vector<la::CsrMatrix>& reduced, const la::Matrix& basis,
    const UnifiedOptions& options, const ReducedSolveControls& controls,
    UnifiedResult* result) {
  ReducedSolveState state;
  UMVSC_RETURN_IF_ERROR(internal::SolveAlternation(reduced, &basis, options,
                                                   controls, result, &state));
  return state;
}

}  // namespace umvsc::mvsc
