#include "graph/knn_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "graph/tiled_select.h"

namespace umvsc::graph {

namespace {

using internal::DirectedSelection;
using internal::PanelFiller;
using internal::TiledSelect;

// Panels that read rows of an already-materialized score matrix — the
// dense-input wrappers route through the same tiled core as the
// feature-direct builders, so both paths share one selection/emission
// implementation and emit identical graphs.
PanelFiller DenseRowFiller(const la::Matrix& scores) {
  return [&scores](std::size_t r0, std::size_t r1, double* panel) {
    std::memcpy(panel, scores.RowPtr(r0), (r1 - r0) * scores.cols() * sizeof(double));
  };
}

// Symmetrizes a directed top-k selection into the undirected CSR graph.
// Works on per-row neighbor lists only — O(n·k) memory:
//  1. per-row column-sorted copies of the directed selection,
//  2. its transpose (who selected me), built by a counting pass,
//  3. a sorted two-pointer merge per row i over both lists restricted to
//     j > i, emitting {i,j,w} and {j,i,w} exactly as the dense scan did.
// Rows emit into private buffers concatenated in row order, so the triplet
// stream — and the assembled CSR — is bitwise identical at every thread
// count.
la::CsrMatrix SymmetrizeDirected(const DirectedSelection& sel,
                                 KnnSymmetrization symmetrization) {
  const std::size_t n = sel.n;
  const std::size_t k = sel.k;

  // 1. Column-sorted per-row copies (selection arrives in rank order).
  std::vector<std::size_t> scols(sel.cols);
  std::vector<double> svals(sel.vals);
  ParallelFor(0, n, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t base = i * k;
      const std::size_t m = sel.counts[i];
      // Insertion sort by column; m <= k is small and columns are unique.
      for (std::size_t a = 1; a < m; ++a) {
        const std::size_t c = scols[base + a];
        const double v = svals[base + a];
        std::size_t b = a;
        while (b > 0 && scols[base + b - 1] > c) {
          scols[base + b] = scols[base + b - 1];
          svals[base + b] = svals[base + b - 1];
          --b;
        }
        scols[base + b] = c;
        svals[base + b] = v;
      }
    }
  });

  // 2. Transpose lists: for each j, the rows i that selected j, ascending
  // (guaranteed by the ascending-i fill order). Serial O(n·k) pass.
  std::vector<std::size_t> toff(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < sel.counts[i]; ++r) {
      ++toff[sel.cols[i * k + r] + 1];
    }
  }
  for (std::size_t j = 0; j < n; ++j) toff[j + 1] += toff[j];
  std::vector<std::size_t> trow(toff[n]);
  std::vector<double> tval(toff[n]);
  {
    std::vector<std::size_t> cursor(toff.begin(), toff.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < sel.counts[i]; ++r) {
        const std::size_t j = sel.cols[i * k + r];
        trow[cursor[j]] = i;
        tval[cursor[j]] = sel.vals[i * k + r];
        ++cursor[j];
      }
    }
  }

  // 3. Merge + emit. For each unordered pair only the i < j endpoint emits,
  // reproducing the dense path's emission order exactly.
  std::vector<std::vector<la::Triplet>> row_triplets(n);
  ParallelFor(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t base = i * k;
      std::size_t a = 0;                       // cursor into row i's out-list
      const std::size_t am = sel.counts[i];
      while (a < am && scols[base + a] <= i) ++a;
      std::size_t b = toff[i];                 // cursor into row i's in-list
      const std::size_t bm = toff[i + 1];
      while (b < bm && trow[b] <= i) ++b;
      while (a < am || b < bm) {
        const std::size_t ja = a < am ? scols[base + a] : n;
        const std::size_t jb = b < bm ? trow[b] : n;
        const std::size_t j = std::min(ja, jb);
        double out_w = 0.0;  // i selected j
        double in_w = 0.0;   // j selected i
        if (ja == j) {
          out_w = svals[base + a];
          ++a;
        }
        if (jb == j) {
          in_w = tval[b];
          ++b;
        }
        double w = 0.0;
        switch (symmetrization) {
          case KnnSymmetrization::kUnion:
            w = std::max(out_w, in_w);
            break;
          case KnnSymmetrization::kMutual:
            w = (out_w > 0.0 && in_w > 0.0) ? std::min(out_w, in_w) : 0.0;
            break;
          case KnnSymmetrization::kAverage:
            w = 0.5 * (out_w + in_w);
            break;
        }
        if (w > 0.0) {
          row_triplets[i].push_back({i, j, w});
          row_triplets[i].push_back({j, i, w});
        }
      }
    }
  });
  std::vector<la::Triplet> triplets;
  for (std::vector<la::Triplet>& row : row_triplets) {
    triplets.insert(triplets.end(), row.begin(), row.end());
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

// Turns a directed (k+1)-nearest selection (rank order: nearest first) into
// the CAN adaptive-neighbor graph, replicating the closed-form weights and
// the (W + Wᵀ)/2 emission of the historical dense implementation.
la::CsrMatrix AdaptiveWeightsFromSelection(const DirectedSelection& sel,
                                           std::size_t k) {
  const std::size_t n = sel.n;
  const std::size_t slots = sel.k;  // k + 1
  std::vector<std::vector<la::Triplet>> row_triplets(n);
  ParallelFor(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t base = i * slots;
      const double d_kplus1 = sel.vals[base + k];
      double sum_k = 0.0;
      for (std::size_t r = 0; r < k; ++r) sum_k += sel.vals[base + r];
      const double denom = static_cast<double>(k) * d_kplus1 - sum_k;
      for (std::size_t r = 0; r < k; ++r) {
        double w;
        if (denom > 1e-300) {
          w = (d_kplus1 - sel.vals[base + r]) / denom;
        } else {
          // All k+1 nearest distances tie: fall back to uniform weights.
          w = 1.0 / static_cast<double>(k);
        }
        if (w > 0.0) {
          // Symmetrized as (W + Wᵀ)/2: emit half from each endpoint.
          row_triplets[i].push_back({i, sel.cols[base + r], 0.5 * w});
          row_triplets[i].push_back({sel.cols[base + r], i, 0.5 * w});
        }
      }
    }
  });
  std::vector<la::Triplet> triplets;
  for (std::vector<la::Triplet>& row : row_triplets) {
    triplets.insert(triplets.end(), row.begin(), row.end());
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace

StatusOr<la::CsrMatrix> BuildKnnGraph(const la::Matrix& affinity,
                                      std::size_t k,
                                      KnnSymmetrization symmetrization) {
  if (!affinity.IsSquare()) {
    return Status::InvalidArgument("BuildKnnGraph requires a square affinity");
  }
  const std::size_t n = affinity.rows();
  if (k < 1 || k >= n) {
    return Status::InvalidArgument("BuildKnnGraph requires 1 <= k < n");
  }
  // The nonnegativity validation rides the selection pass (every panel
  // entry is inspected exactly once) instead of a serial O(n²) prescan.
  bool negative = false;
  DirectedSelection sel =
      TiledSelect(n, k, /*largest=*/true, internal::kTileRows,
                  DenseRowFiller(affinity), &negative);
  if (negative) {
    return Status::InvalidArgument("affinities must be nonnegative");
  }
  return SymmetrizeDirected(sel, symmetrization);
}

StatusOr<la::CsrMatrix> BuildKnnGraphFromFeatures(
    const la::Matrix& x, std::size_t k, KnnSymmetrization symmetrization) {
  const std::size_t n = x.rows();
  if (n < 2) {
    return Status::InvalidArgument(
        "BuildKnnGraphFromFeatures requires at least 2 samples");
  }
  if (k < 1 || k >= n) {
    return Status::InvalidArgument("BuildKnnGraph requires 1 <= k < n");
  }
  const PackedRows packed = PackRows(x);
  StatusOr<la::Vector> scales = SelfTuningScales(packed, x, k);
  if (!scales.ok()) return scales.status();
  const la::Vector& scale = *scales;
  // Fused panel: squared distances → self-tuning kernel values, identical
  // expression (and therefore bits) to SelfTuningKernel's dense fill.
  PanelFiller fill = [&](std::size_t r0, std::size_t r1, double* panel) {
    SquaredDistanceTile(packed, x.RowPtr(r0), r1 - r0, panel);
    for (std::size_t i = r0; i < r1; ++i) {
      double* prow = panel + (i - r0) * n;
      for (std::size_t j = 0; j < n; ++j) {
        prow[j] = j == i ? 0.0 : std::exp(-prow[j] / (scale[i] * scale[j]));
      }
    }
  };
  DirectedSelection sel = TiledSelect(n, k, /*largest=*/true,
                                      internal::kTileRows, fill,
                                      /*negative_seen=*/nullptr);
  return SymmetrizeDirected(sel, symmetrization);
}

StatusOr<la::CsrMatrix> AdaptiveNeighborGraph(const la::Matrix& sq_dists,
                                              std::size_t k) {
  if (!sq_dists.IsSquare()) {
    return Status::InvalidArgument(
        "AdaptiveNeighborGraph requires a square distance matrix");
  }
  const std::size_t n = sq_dists.rows();
  if (k < 1 || k + 1 >= n) {
    return Status::InvalidArgument(
        "AdaptiveNeighborGraph requires 1 <= k < n - 1");
  }
  DirectedSelection sel =
      TiledSelect(n, k + 1, /*largest=*/false, internal::kTileRows,
                  DenseRowFiller(sq_dists), /*negative_seen=*/nullptr);
  return AdaptiveWeightsFromSelection(sel, k);
}

StatusOr<la::CsrMatrix> AdaptiveNeighborGraphFromFeatures(
    const la::Matrix& x, std::size_t k) {
  const std::size_t n = x.rows();
  if (k < 1 || k + 1 >= n) {
    return Status::InvalidArgument(
        "AdaptiveNeighborGraph requires 1 <= k < n - 1");
  }
  const PackedRows packed = PackRows(x);
  DirectedSelection sel = TiledSelect(
      n, k + 1, /*largest=*/false, internal::kTileRows,
      [&](std::size_t r0, std::size_t r1, double* panel) {
        SquaredDistanceTile(packed, x.RowPtr(r0), r1 - r0, panel);
      },
      /*negative_seen=*/nullptr);
  return AdaptiveWeightsFromSelection(sel, k);
}

}  // namespace umvsc::graph
