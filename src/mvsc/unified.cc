#include "mvsc/unified.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/parallel.h"
#include "cluster/gpi.h"
#include "cluster/rotation.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/svd.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/unified_internal.h"

namespace umvsc::mvsc {

namespace {

constexpr double kTraceFloor = 1e-12;

}  // namespace

// The shared solver blocks below are declared in unified_internal.h so the
// reduced anchor path (reduced_solve.cc) runs the SAME update semantics.
namespace internal {

// Per-view smoothness h_v = Tr(Fᵀ L_v F) − offset_v, floored away from zero
// so the weight updates stay finite on views the embedding fits perfectly.
// With the kExcess normalization the offsets are each view's own spectral
// optimum, making the weights scale-invariant across views.
std::vector<double> ViewSmoothness(const std::vector<la::CsrMatrix>& laplacians,
                                   const la::Matrix& f,
                                   const std::vector<double>& offsets) {
  std::vector<double> h(laplacians.size());
  // Each view's trace is independent and lands in its own slot, so the
  // fan-out is write-disjoint and deterministic. Runs every outer
  // iteration — with one view per core this is the cheapest win of the
  // whole solver. (Nested QuadraticTrace calls degrade to serial.)
  ParallelFor(0, laplacians.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      h[v] = std::max(kTraceFloor,
                      la::QuadraticTrace(laplacians[v], f) - offsets[v]);
    }
  });
  return h;
}

// Dispatches a smallest-eigenpairs solve through the block-Lanczos panel
// path or the single-vector path — resolved per shape by the measured
// auto-policy unless the caller forces one — same contract either way.
StatusOr<la::SymEigenResult> SmallestEigenpairsSparse(
    const la::CsrMatrix& lap, std::size_t c, double spectral_bound,
    const la::LanczosOptions& options, la::EigensolveMode mode) {
  return la::LanczosSmallestAuto(lap, c, spectral_bound, options, mode);
}

// ĉ_v per view: the sum of the c smallest eigenvalues of L_v (the best
// smoothness any orthonormal F could achieve on that view alone).
StatusOr<std::vector<double>> SpectralFloors(
    const std::vector<la::CsrMatrix>& laplacians, std::size_t c,
    const la::LanczosOptions& lanczos, la::EigensolveMode block_lanczos,
    std::size_t* matvec_total) {
  const std::size_t num_views = laplacians.size();
  std::vector<double> floors(num_views, 0.0);
  // Every view shares one shape (n, c), so the solver choice is resolved
  // once, up front.
  const la::EigensolveMode mode = la::ResolveEigensolveMode(
      block_lanczos, laplacians.empty() ? 0 : laplacians[0].rows(), c);
  // One Lanczos eigensolve per view, fanned out across views. Each solve is
  // seeded from the options, so its result does not depend on scheduling;
  // statuses are collected and checked in view order afterwards. Matvecs go
  // into per-view slots (the shared counter in `lanczos` would race) and are
  // summed in view order after the region.
  std::vector<std::optional<Status>> statuses(num_views);
  std::vector<std::size_t> matvecs(num_views, 0);
  ParallelFor(0, num_views, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      la::LanczosOptions local = lanczos;
      local.matvec_count = &matvecs[v];
      StatusOr<la::SymEigenResult> eig = SmallestEigenpairsSparse(
          laplacians[v], c, 2.0 + 1e-9, local, mode);
      if (!eig.ok()) {
        statuses[v].emplace(eig.status());
        continue;
      }
      statuses[v].emplace(Status::OK());
      double sum = 0.0;
      for (std::size_t j = 0; j < c; ++j) {
        sum += std::max(0.0, eig->eigenvalues[j]);
      }
      floors[v] = sum;
    }
  });
  for (std::size_t v = 0; v < num_views; ++v) {
    if (!statuses[v]->ok()) return *statuses[v];
    if (matvec_total != nullptr) *matvec_total += matvecs[v];
  }
  return floors;
}

namespace {

// Floors combination coefficients at a fraction of their maximum. A view
// whose graph fragments into more than c components has Tr(FᵀL_vF) ≈ 0, so
// its raw coefficient explodes and the weighted Laplacian's null space grows
// past c dimensions — the eigensolver then returns arbitrary directions.
// Keeping every view at ≥ 1e-3 of the dominant one preserves the weight
// ordering while the other views' connectivity disambiguates the embedding.
constexpr double kCoefficientFloorRatio = 1e-3;

void FloorCoefficients(std::vector<double>& coefficients) {
  double cmax = 0.0;
  for (double c : coefficients) cmax = std::max(cmax, c);
  if (cmax <= 0.0) return;
  for (double& c : coefficients) {
    c = std::max(c, kCoefficientFloorRatio * cmax);
  }
}

}  // namespace

Weights UpdateWeights(const std::vector<double>& h, ViewWeighting mode,
                      double gamma) {
  const std::size_t num_views = h.size();
  Weights w;
  w.alpha.assign(num_views, 1.0 / static_cast<double>(num_views));
  w.coefficients.assign(num_views, 1.0 / static_cast<double>(num_views));
  switch (mode) {
    case ViewWeighting::kUniform:
      break;
    case ViewWeighting::kGammaPower: {
      // α_v ∝ h_v^{1/(1−γ)} minimizes Σ α_v^γ h_v over the simplex.
      const double exponent = 1.0 / (1.0 - gamma);
      double total = 0.0;
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] = std::pow(h[v], exponent);
        total += w.alpha[v];
      }
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] /= total;
        w.coefficients[v] = std::pow(w.alpha[v], gamma);
      }
      break;
    }
    case ViewWeighting::kAmgl: {
      // The derivative trick of AMGL: Σ√h_v is minimized by iterating with
      // coefficients 1/(2√h_v). Report the normalized coefficients as α.
      double total = 0.0;
      for (std::size_t v = 0; v < num_views; ++v) {
        w.coefficients[v] = 0.5 / std::sqrt(h[v]);
        total += w.coefficients[v];
      }
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] = w.coefficients[v] / total;
      }
      break;
    }
  }
  FloorCoefficients(w.coefficients);
  return w;
}

// Row-argmax discretization with empty-cluster repair: an empty column j
// steals the row with the largest affinity F·R(:, j) among rows whose
// cluster keeps >= 2 members, so the solver cannot silently collapse
// clusters (mirrors the K-means empty-cluster convention).
void DiscretizeRows(const la::Matrix& fr, std::vector<std::size_t>& labels,
                    std::vector<std::size_t>& counts) {
  const std::size_t n = fr.rows();
  const std::size_t num_clusters = fr.cols();
  labels.assign(n, 0);
  counts.assign(num_clusters, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < num_clusters; ++j) {
      if (fr(i, j) > best) {
        best = fr(i, j);
        labels[i] = j;
      }
    }
    counts[labels[i]]++;
  }
  for (std::size_t j = 0; j < num_clusters; ++j) {
    if (counts[j] != 0) continue;
    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_i = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[labels[i]] < 2) continue;
      if (fr(i, j) > best) {
        best = fr(i, j);
        best_i = i;
      }
    }
    if (best_i < n) {
      counts[labels[best_i]]--;
      labels[best_i] = j;
      counts[j] = 1;
    }
  }
}

double DiscretizeStep(const la::Matrix& fr, bool scale_indicator,
                      std::vector<std::size_t>& labels,
                      std::vector<std::size_t>& counts, la::Matrix& y_hat) {
  DiscretizeRows(fr, labels, counts);
  return cluster::IndicatorResidual(labels, counts, scale_indicator, fr,
                                    y_hat);
}

double ObjectiveFromResidual(const std::vector<la::CsrMatrix>& laplacians,
                             const std::vector<double>& weight_coefficients,
                             double beta, const la::Matrix& f,
                             double residual) {
  std::vector<double> traces(laplacians.size(), 0.0);
  ParallelFor(0, laplacians.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      traces[v] = la::QuadraticTrace(laplacians[v], f);
    }
  });
  double obj = 0.0;
  for (std::size_t v = 0; v < laplacians.size(); ++v) {
    obj += weight_coefficients[v] * traces[v];
  }
  return obj + beta * residual * residual;
}

}  // namespace internal

double UnifiedObjective(const std::vector<la::CsrMatrix>& laplacians,
                        const std::vector<double>& weight_coefficients,
                        double beta, const la::Matrix& f,
                        const la::Matrix& rotation,
                        const la::Matrix& indicator_scaled) {
  const double residual =
      la::Add(indicator_scaled, la::MatMul(f, rotation), -1.0).FrobeniusNorm();
  return internal::ObjectiveFromResidual(laplacians, weight_coefficients, beta,
                                         f, residual);
}

StatusOr<UnifiedResult> UnifiedMVSC::Run(const MultiViewGraphs& graphs) const {
  const std::size_t num_views = graphs.laplacians.size();
  const std::size_t n = graphs.NumSamples();
  const std::size_t c = options_.num_clusters;
  if (options_.anchors.enabled) {
    return Status::InvalidArgument(
        "anchor mode selects anchors from raw features; call "
        "Run(dataset) instead of Run(graphs)");
  }
  if (num_views == 0) {
    return Status::InvalidArgument("UnifiedMVSC requires at least one view");
  }
  if (c < 2 || c >= n) {
    return Status::InvalidArgument("UnifiedMVSC requires 2 <= c < n");
  }
  if (options_.beta < 0.0) {
    return Status::InvalidArgument("beta must be nonnegative");
  }
  if (options_.weighting == ViewWeighting::kGammaPower &&
      options_.gamma <= 1.0) {
    return Status::InvalidArgument("gamma-power weighting requires gamma > 1");
  }

  // --- Initialization: warm-start with a few weight↔embedding alternations
  // (fresh eigensolves, no discrete coupling). A single embedding of the
  // uniform average is fragile — one adversarial view can wreck it, and the
  // Y↔F alternation below would then lock onto the bad partition. The
  // alternations let the auto-weighting suppress such views first.
  la::LanczosOptions lanczos;
  lanczos.seed = options_.seed + 17;
  lanczos.max_subspace = std::min(n, std::max<std::size_t>(12 * c + 100, 250));
  lanczos.tolerance = 3e-6;
  UnifiedResult out;
  std::vector<double> floors(num_views, 0.0);
  if (options_.smoothness == SmoothnessNormalization::kExcess) {
    StatusOr<std::vector<double>> spectral =
        internal::SpectralFloors(graphs.laplacians, c, lanczos, options_.block_lanczos,
                       &out.lanczos_matvecs);
    if (!spectral.ok()) return spectral.status();
    floors = std::move(*spectral);
  }
  internal::Weights weights;
  weights.coefficients.assign(num_views, 1.0 / static_cast<double>(num_views));
  la::Matrix f;
  // The per-view Laplacians are fixed for the whole run, so the union
  // sparsity pattern of their weighted combinations is too: plan it once,
  // and every alternation/iteration below refreshes values only (no triplet
  // assembly, no sorting).
  const la::CsrCombiner combiner = la::CsrCombiner::Plan(graphs.laplacians);
  const std::size_t warmups = std::max<std::size_t>(1, options_.init_alternations);
  for (std::size_t warm = 0; warm < warmups; ++warm) {
    // Mass-renormalized combination: exact eigenvectors of the plain
    // weighted sum on complete data, and a resolvable bottom eigengap on
    // incomplete data (see MassNormalizedCombination).
    la::CsrMatrix combined = MassNormalizedCombination(
        combiner.Combine(graphs.laplacians, weights.coefficients));
    la::LanczosOptions warm_lanczos = lanczos;
    warm_lanczos.matvec_count = &out.lanczos_matvecs;
    if (options_.warm_start && f.rows() == n && f.cols() == c) {
      // Seed from the previous alternation's embedding: the combined
      // Laplacian moved only as far as the view weights did.
      warm_lanczos.warm_start = &f;
    }
    StatusOr<la::SymEigenResult> init_eig = internal::SmallestEigenpairsSparse(
        combined, c, cluster::GershgorinUpperBound(combined) + 1e-9,
        warm_lanczos, options_.block_lanczos);
    if (!init_eig.ok()) return init_eig.status();
    f = std::move(init_eig->eigenvectors);
    const std::vector<double> h = internal::ViewSmoothness(graphs.laplacians, f, floors);
    weights = internal::UpdateWeights(h, options_.weighting, options_.gamma);
    double smoothness = 0.0;
    for (std::size_t v = 0; v < num_views; ++v) {
      smoothness += weights.coefficients[v] * h[v];
    }
    out.warmup_trace.push_back(smoothness);
  }

  cluster::RotationOptions rot_init;
  rot_init.seed = options_.seed + 31;
  rot_init.restarts = 8;
  rot_init.scale_indicator = options_.scale_indicator;
  StatusOr<cluster::RotationResult> init_disc =
      cluster::DiscretizeEmbedding(f, rot_init);
  if (!init_disc.ok()) return init_disc.status();
  la::Matrix rotation = std::move(init_disc->rotation);
  std::vector<std::size_t> labels = std::move(init_disc->labels);
  la::Matrix y_hat = options_.scale_indicator
                         ? cluster::ScaledIndicator(init_disc->indicator)
                         : std::move(init_disc->indicator);

  // Per-iteration temporaries, shaped once: the Into-style producers
  // overwrite them every iteration.
  la::Matrix b(n, c);    // F-step right-hand side β·Ŷ·Rᵀ
  la::Matrix ctc(c, c);  // R-step Procrustes input FᵀŶ
  la::Matrix fr(n, c);   // Y-step rotated embedding F·R
  std::vector<std::size_t> counts(c);  // Y-step cluster sizes
  double prev_obj = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // --- F-step: min Tr(FᵀAF) − 2β·Tr(Fᵀ Ŷ Rᵀ) on the Stiefel manifold.
    // Value-only combination over the precomputed union pattern; the GPI is
    // warm-started from the incumbent F below.
    la::CsrMatrix a = combiner.Combine(graphs.laplacians, weights.coefficients);
    la::MatMulTInto(y_hat, rotation, b);
    b.Scale(options_.beta);
    cluster::GpiOptions gpi;
    gpi.max_iterations = options_.gpi_iterations;
    StatusOr<cluster::GpiResult> fstep =
        cluster::GeneralizedPowerIteration(a, b, f, gpi);
    if (!fstep.ok()) return fstep.status();
    f = std::move(fstep->f);

    // --- R-step: orthogonal Procrustes on FᵀŶ.
    la::MatTMulInto(f, y_hat, ctc);
    StatusOr<la::Matrix> rstep = la::ProcrustesRotation(ctc);
    if (!rstep.ok()) return rstep.status();
    rotation = std::move(*rstep);

    // --- Y-step: row-wise argmax of F·R (exact given F, R); the same F·R
    // yields the objective's residual.
    la::MatMulInto(f, rotation, fr);
    const double residual = internal::DiscretizeStep(
        fr, options_.scale_indicator, labels, counts, y_hat);

    // --- α-step: closed form from the fresh smoothness values.
    weights = internal::UpdateWeights(internal::ViewSmoothness(graphs.laplacians, f, floors),
                            options_.weighting, options_.gamma);

    const double obj = internal::ObjectiveFromResidual(
        graphs.laplacians, weights.coefficients, options_.beta, f, residual);
    out.objective_trace.push_back(obj);
    out.iterations = iter + 1;
    if (iter > 0 && std::fabs(prev_obj - obj) <=
                        options_.tolerance * std::max(std::fabs(prev_obj), 1e-12)) {
      out.converged = true;
      break;
    }
    prev_obj = obj;
  }

  // Final polish: re-search the (Y, R) pair for the converged F with fresh
  // rotation restarts — the alternation only ever refined the incumbent
  // rotation, and a restarted search occasionally finds a strictly better
  // discretization. Accepted only when the full objective improves.
  {
    cluster::RotationOptions rot_final;
    rot_final.seed = options_.seed + 97;
    rot_final.restarts = 8;
    rot_final.scale_indicator = options_.scale_indicator;
    StatusOr<cluster::RotationResult> polished =
        cluster::DiscretizeEmbedding(f, rot_final);
    if (polished.ok()) {
      la::Matrix polished_y_hat =
          options_.scale_indicator ? cluster::ScaledIndicator(polished->indicator)
                                   : polished->indicator;
      const double incumbent =
          UnifiedObjective(graphs.laplacians, weights.coefficients,
                           options_.beta, f, rotation, y_hat);
      const double candidate = UnifiedObjective(
          graphs.laplacians, weights.coefficients, options_.beta, f,
          polished->rotation, polished_y_hat);
      if (candidate < incumbent) {
        rotation = std::move(polished->rotation);
        labels = std::move(polished->labels);
      }
    }
  }

  out.indicator = cluster::LabelsToIndicator(labels, c);
  out.labels = std::move(labels);
  out.embedding = std::move(f);
  out.rotation = std::move(rotation);
  out.view_weights = std::move(weights.alpha);
  return out;
}

StatusOr<UnifiedResult> UnifiedMVSC::Run(
    const data::MultiViewDataset& dataset,
    const GraphOptions& graph_options) const {
  if (options_.anchors.enabled) {
    // The large-scale reduced path: no O(n²) graphs, no n-row eigensolves.
    StatusOr<AnchorUnifiedResult> anchored =
        SolveUnifiedAnchors(dataset, options_, graph_options.standardize);
    if (!anchored.ok()) return anchored.status();
    return std::move(anchored->result);
  }
  StatusOr<MultiViewGraphs> graphs = BuildGraphs(dataset, graph_options);
  if (!graphs.ok()) return graphs.status();
  return Run(*graphs);
}

}  // namespace umvsc::mvsc
