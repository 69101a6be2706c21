#include "mvsc/unified.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/parallel.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/unified_internal.h"

namespace umvsc::mvsc {

namespace {

constexpr double kTraceFloor = 1e-12;

}  // namespace

// The alternation's building blocks, declared in unified_internal.h; the
// driver that runs them (internal::SolveAlternation) is in reduced_solve.cc.
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
      StatusOr<la::SymEigenResult> eig =
          la::LanczosSmallestAuto(laplacians[v], c, 2.0 + 1e-9, local, mode);
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

Status ValidateUnifiedOptions(const UnifiedOptions& options, bool anchored) {
  if (options.num_clusters < 2) {
    return Status::InvalidArgument("num_clusters must be at least 2");
  }
  if (options.beta < 0.0) {
    return Status::InvalidArgument("beta must be nonnegative");
  }
  if (options.weighting == ViewWeighting::kGammaPower &&
      options.gamma <= 1.0) {
    return Status::InvalidArgument("gamma-power weighting requires gamma > 1");
  }
  if (!anchored) return Status::OK();
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t s = options.anchors.anchor_neighbors;
  if (m < 2) {
    return Status::InvalidArgument("anchor mode requires num_anchors >= 2");
  }
  if (s < 1 || s > m) {
    return Status::InvalidArgument(
        "anchor mode requires 1 <= anchor_neighbors <= num_anchors");
  }
  return Status::OK();
}

StatusOr<UnifiedResult> UnifiedMVSC::Run(const MultiViewGraphs& graphs) const {
  if (options_.anchors.enabled) {
    return Status::InvalidArgument(
        "anchor mode selects anchors from raw features; call "
        "Run(dataset) instead of Run(graphs)");
  }
  if (graphs.laplacians.empty()) {
    return Status::InvalidArgument("UnifiedMVSC requires at least one view");
  }
  UMVSC_RETURN_IF_ERROR(ValidateUnifiedOptions(options_, /*anchored=*/false));
  if (options_.num_clusters >= graphs.NumSamples()) {
    return Status::InvalidArgument("UnifiedMVSC requires 2 <= c < n");
  }
  // The exact path is the shared alternation without a basis: F = G over
  // the n × n Laplacians, entered cold with the final polish.
  UnifiedResult out;
  UMVSC_RETURN_IF_ERROR(internal::SolveAlternation(
      graphs.laplacians, /*basis=*/nullptr, options_, ReducedSolveControls{},
      &out, /*state=*/nullptr));
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
