#include "graph/anchors.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/distance.h"
#include "graph/tiled_select.h"

namespace umvsc::graph {

namespace {

// Squared Euclidean distance between a candidate row and a center row,
// accumulated in ascending-feature order (the determinism convention of
// every distance kernel in this library).
double RowSquaredDistance(const double* a, const double* b, std::size_t d) {
  double s = 0.0;
  for (std::size_t p = 0; p < d; ++p) {
    const double diff = a[p] - b[p];
    s += diff * diff;
  }
  return s;
}

// k-means++ seeding + a few Lloyd sweeps over a bounded candidate subsample.
// Entirely serial and driven by `rng`, so the anchors are a pure function of
// (x, options) — never the thread count.
la::Matrix KmeansppRefineAnchors(const la::Matrix& x,
                                 const AnchorOptions& options, Rng& rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t m = options.num_anchors;
  const std::size_t num_candidates = std::min(
      n, std::max<std::size_t>(options.candidate_factor * m, 1024));

  la::Matrix candidates(num_candidates, d);
  {
    const std::vector<std::size_t> ids =
        rng.SampleWithoutReplacement(n, num_candidates);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      candidates.SetRow(i, x.Row(ids[i]));
    }
  }

  // Seeding: first center uniform, each next center drawn with probability
  // proportional to the candidate's squared distance to its nearest chosen
  // center. When every remaining candidate coincides with a chosen center
  // (total weight 0 — duplicated data), fall back to the smallest unchosen
  // candidate index so exactly m centers always come back.
  la::Matrix centers(m, d);
  std::vector<double> min_d2(num_candidates, 0.0);
  std::vector<bool> chosen(num_candidates, false);
  std::size_t first = static_cast<std::size_t>(rng.UniformInt(num_candidates));
  centers.SetRow(0, candidates.Row(first));
  chosen[first] = true;
  for (std::size_t i = 0; i < num_candidates; ++i) {
    min_d2[i] =
        RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(0), d);
  }
  for (std::size_t t = 1; t < m; ++t) {
    double total = 0.0;
    for (double w : min_d2) total += w;
    std::size_t pick = num_candidates;
    if (total > 0.0) {
      pick = rng.SampleDiscrete(min_d2);
    } else {
      for (std::size_t i = 0; i < num_candidates; ++i) {
        if (!chosen[i]) {
          pick = i;
          break;
        }
      }
      if (pick == num_candidates) pick = t % num_candidates;
    }
    centers.SetRow(t, candidates.Row(pick));
    chosen[pick] = true;
    for (std::size_t i = 0; i < num_candidates; ++i) {
      const double d2 =
          RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(t), d);
      if (d2 < min_d2[i]) min_d2[i] = d2;
    }
  }

  // Lloyd refinement restricted to the candidate subsample. Assignment ties
  // keep the smaller center index; an empty cluster keeps its previous
  // center (it stays a valid landmark).
  std::vector<std::size_t> assign(num_candidates, 0);
  la::Matrix sums(m, d);
  std::vector<std::size_t> counts(m, 0);
  for (std::size_t sweep = 0; sweep < options.refine_iterations; ++sweep) {
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double best = RowSquaredDistance(candidates.RowPtr(i),
                                       centers.RowPtr(0), d);
      std::size_t best_j = 0;
      for (std::size_t j = 1; j < m; ++j) {
        const double d2 =
            RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(j), d);
        if (d2 < best) {
          best = d2;
          best_j = j;
        }
      }
      assign[i] = best_j;
    }
    sums.Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double* srow = sums.RowPtr(assign[i]);
      const double* crow = candidates.RowPtr(i);
      for (std::size_t p = 0; p < d; ++p) srow[p] += crow[p];
      counts[assign[i]]++;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (counts[j] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[j]);
      double* crow = centers.RowPtr(j);
      const double* srow = sums.RowPtr(j);
      for (std::size_t p = 0; p < d; ++p) crow[p] = srow[p] * inv;
    }
  }
  return centers;
}

}  // namespace

StatusOr<la::Matrix> SelectAnchors(const la::Matrix& x,
                                   const AnchorOptions& options) {
  const std::size_t n = x.rows();
  const std::size_t m = options.num_anchors;
  if (n == 0 || x.cols() == 0) {
    return Status::InvalidArgument("SelectAnchors requires non-empty features");
  }
  if (m < 1 || m > n) {
    return Status::InvalidArgument(
        "SelectAnchors requires 1 <= num_anchors <= n");
  }
  Rng rng(options.seed);
  if (options.selection == AnchorSelection::kUniform) {
    const std::vector<std::size_t> ids = rng.SampleWithoutReplacement(n, m);
    la::Matrix anchors(m, x.cols());
    for (std::size_t i = 0; i < m; ++i) anchors.SetRow(i, x.Row(ids[i]));
    return anchors;
  }
  return KmeansppRefineAnchors(x, options, rng);
}

StatusOr<la::CsrMatrix> BuildAnchorAffinity(const la::Matrix& x,
                                            const la::Matrix& anchors,
                                            const AnchorGraphOptions& options) {
  const std::size_t n = x.rows();
  const std::size_t m = anchors.rows();
  const std::size_t s = options.anchor_neighbors;
  if (n == 0 || x.cols() == 0 || m == 0) {
    return Status::InvalidArgument(
        "BuildAnchorAffinity requires non-empty points and anchors");
  }
  if (x.cols() != anchors.cols()) {
    return Status::InvalidArgument(
        "points and anchors must share a feature dimension");
  }
  if (s < 1 || s > m) {
    return Status::InvalidArgument(
        "BuildAnchorAffinity requires 1 <= anchor_neighbors <= anchors");
  }

  const la::Vector x_norms = RowSquaredNorms(x);
  const la::Vector a_norms = RowSquaredNorms(anchors);
  internal::DirectedSelection sel = internal::TiledSelectRect(
      n, m, s, /*largest=*/false, options.tile_rows,
      [&](std::size_t r0, std::size_t r1, double* panel) {
        CrossSquaredDistancePanel(x, x_norms, anchors, a_norms, r0, r1, panel);
      });

  // Weight + normalize + column-sort each row. Every row depends only on its
  // own selection, so the pass is row-parallel, write-disjoint, and bitwise
  // deterministic.
  std::vector<std::size_t> row_offsets(n + 1);
  for (std::size_t i = 0; i <= n; ++i) row_offsets[i] = i * s;
  std::vector<std::size_t> cols = std::move(sel.cols);  // n·s, rank order
  std::vector<double> vals = std::move(sel.vals);
  ParallelFor(0, n, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      WeightAnchorRow(s, cols.data() + i * s, vals.data() + i * s);
    }
  });
  return la::CsrMatrix::FromParts(n, m, std::move(row_offsets),
                                  std::move(cols), std::move(vals));
}

void WeightAnchorRow(std::size_t s, std::size_t* cols, double* vals) {
  // Rank order is ascending distance: the last kept entry is the s-th
  // nearest, whose squared distance is the self-tuning bandwidth. The
  // weight sum runs in rank order (a fixed order per row), NOT in column
  // order, so it too is a pure function of the row.
  const double sigma2 = std::max(vals[s - 1], 1e-300);
  double sum = 0.0;
  for (std::size_t r = 0; r < s; ++r) {
    vals[r] = std::exp(-vals[r] / sigma2);
    sum += vals[r];
  }
  const double inv = 1.0 / sum;  // sum >= exp(-1) by construction
  for (std::size_t r = 0; r < s; ++r) vals[r] *= inv;
  // Insertion sort to ascending column order (s is small), values ride
  // along — CSR requires strictly ascending columns per row.
  for (std::size_t r = 1; r < s; ++r) {
    const std::size_t cr = cols[r];
    const double vr = vals[r];
    std::size_t q = r;
    while (q > 0 && cols[q - 1] > cr) {
      cols[q] = cols[q - 1];
      vals[q] = vals[q - 1];
      --q;
    }
    cols[q] = cr;
    vals[q] = vr;
  }
}

}  // namespace umvsc::graph
