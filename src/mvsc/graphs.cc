#include "mvsc/graphs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/parallel.h"
#include "common/strings.h"
#include "graph/connectivity.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "graph/laplacian.h"

namespace umvsc::mvsc {

namespace {

// A kNN graph can fragment a cluster into several components; the
// normalized Laplacian then has extra zero eigenvalues and the spectral
// embedding picks arbitrary directions in the oversized null space. Bridge
// components with the shortest inter-component edge (scikit-learn's
// connectivity fix), using the weakest existing edge weight so the bridges
// never dominate the cut structure.
la::CsrMatrix EnsureConnected(la::CsrMatrix affinity,
                              const la::Matrix& features) {
  std::vector<std::size_t> component = graph::ConnectedComponents(affinity);
  std::size_t num_components = 0;
  for (std::size_t c : component) num_components = std::max(num_components, c + 1);
  if (num_components <= 1) return affinity;

  // Distances on demand, one row at a time — bridging is the rare path,
  // and recomputing a few rows beats holding an n × n matrix alive for the
  // whole build. graph::SquaredDistanceTile gives each entry the bits of
  // graph::PairwiseSquaredDistances, so the argmin scan picks the same
  // bridge the dense implementation would.
  const graph::PackedRows packed = graph::PackRows(features);
  std::vector<double> d2(features.rows());

  double min_weight = std::numeric_limits<double>::infinity();
  for (double v : affinity.values()) {
    if (v > 0.0) min_weight = std::min(min_weight, v);
  }
  if (!std::isfinite(min_weight)) min_weight = 1.0;

  std::vector<la::Triplet> extra;
  while (num_components > 1) {
    // Shortest edge leaving the component of vertex 0.
    const std::size_t root = component[0];
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < component.size(); ++i) {
      if (component[i] != root) continue;
      graph::SquaredDistanceTile(packed, features.RowPtr(i), 1, d2.data());
      for (std::size_t j = 0; j < component.size(); ++j) {
        if (component[j] == root) continue;
        if (d2[j] < best) {
          best = d2[j];
          bi = i;
          bj = j;
        }
      }
    }
    extra.push_back({bi, bj, min_weight});
    extra.push_back({bj, bi, min_weight});
    // Merge the absorbed component into root.
    const std::size_t absorbed = component[bj];
    for (std::size_t& c : component) {
      if (c == absorbed) c = root;
    }
    --num_components;
  }

  const auto& offsets = affinity.row_offsets();
  const auto& cols = affinity.col_indices();
  const auto& vals = affinity.values();
  for (std::size_t i = 0; i < affinity.rows(); ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      extra.push_back({i, cols[k], vals[k]});
    }
  }
  return la::CsrMatrix::FromTriplets(affinity.rows(), affinity.cols(),
                                     std::move(extra));
}

StatusOr<la::CsrMatrix> BuildAffinity(const la::Matrix& features,
                                      const GraphOptions& options) {
  const std::size_t n = features.rows();
  if (n < 3) {
    return Status::InvalidArgument("graph construction needs >= 3 samples");
  }
  const std::size_t k =
      std::min<std::size_t>(options.knn, n >= 3 ? n - 2 : 1);
  // Feature-direct tiled builders: O(n·k) peak memory, byte-identical
  // graphs to the historical dense distance → kernel → sparsify pipeline.
  StatusOr<la::CsrMatrix> affinity =
      options.adaptive_neighbors
          ? graph::AdaptiveNeighborGraphFromFeatures(features, k)
          : graph::BuildKnnGraphFromFeatures(features, k,
                                             options.symmetrization);
  if (!affinity.ok()) return affinity.status();
  if (options.bridge_components) {
    return EnsureConnected(std::move(*affinity), features);
  }
  return affinity;
}

StatusOr<MultiViewGraphs> FromAffinities(std::vector<la::CsrMatrix> affinities) {
  MultiViewGraphs graphs;
  graphs.affinities = std::move(affinities);
  const std::size_t num_views = graphs.affinities.size();
  // Per-view Laplacians are independent: fan out across views, then
  // collect statuses in view order (first failure wins, as serially).
  std::vector<std::optional<StatusOr<la::CsrMatrix>>> laps(num_views);
  ParallelFor(0, num_views, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      laps[v].emplace(graph::Laplacian(graphs.affinities[v],
                                       graph::LaplacianKind::kSymmetric));
    }
  });
  graphs.laplacians.reserve(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    if (!laps[v]->ok()) return laps[v]->status();
    graphs.laplacians.push_back(std::move(**laps[v]));
  }
  return graphs;
}

}  // namespace

StatusOr<MultiViewGraphs> BuildGraphs(const data::MultiViewDataset& dataset,
                                      const GraphOptions& options) {
  UMVSC_RETURN_IF_ERROR(dataset.Validate());
  data::MultiViewDataset working = dataset;
  if (options.standardize) working.StandardizeViews();

  // Per-view graph construction is embarrassingly parallel: each view's
  // distance/kernel/kNN pipeline runs independently. Inside a fan-out the
  // per-view kernels degrade to serial (nested-region rule), so total
  // parallelism stays bounded by the pool either way; with a single view
  // the inner row-parallel kernels take over instead.
  const std::size_t num_views = working.views.size();
  std::vector<std::optional<StatusOr<la::CsrMatrix>>> results(num_views);
  ParallelFor(0, num_views, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      results[v].emplace(BuildAffinity(working.views[v], options));
    }
  });
  std::vector<la::CsrMatrix> affinities;
  affinities.reserve(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    if (!results[v]->ok()) return results[v]->status();
    affinities.push_back(std::move(**results[v]));
  }
  return FromAffinities(std::move(affinities));
}

la::CsrMatrix MassNormalizedCombination(
    const std::vector<la::CsrMatrix>& laplacians,
    const std::vector<double>& coefficients) {
  return MassNormalizedCombination(la::WeightedSum(laplacians, coefficients));
}

la::CsrMatrix MassNormalizedCombination(const la::CsrMatrix& combined) {
  const std::size_t n = combined.rows();
  la::Vector inv_sqrt_mass(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mass = combined.At(i, i);
    inv_sqrt_mass[i] = mass > 0.0 ? 1.0 / std::sqrt(mass) : 0.0;
  }
  // The input is valid CSR and the rescaling preserves its pattern, so the
  // result can adopt the arrays directly — no triplet buffer, no re-sort.
  const auto& cols = combined.col_indices();
  const auto& vals = combined.values();
  std::vector<double> scaled(vals.size());
  const auto& offsets = combined.row_offsets();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      scaled[k] = inv_sqrt_mass[i] * vals[k] * inv_sqrt_mass[cols[k]];
    }
  }
  return la::CsrMatrix::FromParts(n, combined.cols(), offsets, cols,
                                  std::move(scaled));
}

StatusOr<MultiViewGraphs> BuildGraphsIncomplete(
    const data::MultiViewDataset& dataset, const data::ViewPresence& presence,
    const GraphOptions& options) {
  UMVSC_RETURN_IF_ERROR(dataset.Validate());
  UMVSC_RETURN_IF_ERROR(presence.Validate(dataset));
  const std::size_t n = dataset.NumSamples();

  std::vector<la::CsrMatrix> affinities;
  std::vector<la::CsrMatrix> laplacians;
  for (std::size_t v = 0; v < dataset.NumViews(); ++v) {
    // Extract the observed rows of this view.
    std::vector<std::size_t> observed;
    for (std::size_t i = 0; i < n; ++i) {
      if (presence.present[v][i]) observed.push_back(i);
    }
    if (observed.size() < 3) {
      return Status::InvalidArgument(
          StrFormat("view %zu has fewer than 3 observed samples", v));
    }
    la::Matrix sub(observed.size(), dataset.views[v].cols());
    for (std::size_t r = 0; r < observed.size(); ++r) {
      sub.SetRow(r, dataset.views[v].Row(observed[r]));
    }
    // Standardize within the observed subset (absent rows are noise and
    // must not influence the statistics).
    if (options.standardize) {
      data::MultiViewDataset tmp;
      tmp.views.push_back(std::move(sub));
      tmp.StandardizeViews();
      sub = std::move(tmp.views.front());
    }
    GraphOptions sub_options = options;
    sub_options.standardize = false;
    StatusOr<la::CsrMatrix> sub_affinity = BuildAffinity(sub, sub_options);
    if (!sub_affinity.ok()) return sub_affinity.status();
    StatusOr<la::CsrMatrix> sub_lap =
        graph::Laplacian(*sub_affinity, graph::LaplacianKind::kSymmetric);
    if (!sub_lap.ok()) return sub_lap.status();

    // Lift both matrices to full size: absent samples are isolated vertices
    // with all-zero rows (no affinity, no Laplacian constraint).
    auto lift = [&](const la::CsrMatrix& m) {
      std::vector<la::Triplet> triplets;
      triplets.reserve(m.NumNonZeros());
      const auto& offsets = m.row_offsets();
      const auto& cols = m.col_indices();
      const auto& vals = m.values();
      for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
          triplets.push_back({observed[r], observed[cols[k]], vals[k]});
        }
      }
      return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
    };
    affinities.push_back(lift(*sub_affinity));
    laplacians.push_back(lift(*sub_lap));
  }
  MultiViewGraphs graphs;
  graphs.affinities = std::move(affinities);
  graphs.laplacians = std::move(laplacians);
  return graphs;
}

StatusOr<MultiViewGraphs> BuildSingleGraph(const la::Matrix& features,
                                           const GraphOptions& options) {
  la::Matrix working = features;
  if (options.standardize) {
    data::MultiViewDataset tmp;
    tmp.views.push_back(std::move(working));
    tmp.StandardizeViews();
    working = std::move(tmp.views.front());
  }
  StatusOr<la::CsrMatrix> w = BuildAffinity(working, options);
  if (!w.ok()) return w.status();
  std::vector<la::CsrMatrix> affinities;
  affinities.push_back(std::move(*w));
  return FromAffinities(std::move(affinities));
}

}  // namespace umvsc::mvsc
