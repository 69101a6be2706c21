#include "graph/anchors.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/distance.h"
#include "la/simd.h"

namespace umvsc::graph {

namespace {

using V = la::simd::NativeVec4;

// Candidates per lane block: two NativeVec4 registers.
constexpr std::size_t kBlock = 2 * la::simd::kSimdLanes;

// Candidate blocks per ParallelFor chunk when each block meets `centers`
// centers in one pass: about 2^16 lane mul-adds per chunk, a function of the
// shape alone, so short feature vectors run inline instead of waking the pool.
std::size_t BlockGrain(std::size_t d, std::size_t centers) {
  return std::max<std::size_t>(
      1, (std::size_t{1} << 16) / (kBlock * d * centers));
}

// Squared distances from the kBlock candidates of one lane block (d × kBlock,
// feature-major) to `center`. Lane l accumulates acc + diff·diff with
// diff = c + (−z) — IEEE-equal to c − z — unfused, in ascending feature
// order: the serial chain of a scalar distance loop, so every lane is
// bitwise that loop's value.
void BlockSquaredDistances(const double* block, const double* center,
                           std::size_t d, double* out) {
  constexpr std::size_t kLanes = la::simd::kSimdLanes;
  V::Reg acc0 = V::Zero();
  V::Reg acc1 = V::Zero();
  for (std::size_t p = 0; p < d; ++p) {
    const V::Reg neg = V::Broadcast(-center[p]);
    const V::Reg diff0 = V::Add(V::Load(block + p * kBlock), neg);
    const V::Reg diff1 = V::Add(V::Load(block + p * kBlock + kLanes), neg);
    acc0 = V::MulAdd(diff0, diff0, acc0);
    acc1 = V::MulAdd(diff1, diff1, acc1);
  }
  V::Store(out, acc0);
  V::Store(out + kLanes, acc1);
}

// k-means++ seeding + a few Lloyd sweeps over a bounded candidate subsample.
// The draws are serial and driven by `rng`; the candidate–center distances
// run in lane blocks under ParallelFor with write-disjoint spans, so the
// anchors are a pure function of (x, options) — never the thread count.
la::Matrix KmeansppRefineAnchors(const la::Matrix& x,
                                 const AnchorOptions& options, Rng& rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t m = options.num_anchors;
  const std::size_t num_candidates = std::min(
      n, std::max<std::size_t>(options.candidate_factor * m, 1024));
  const std::vector<std::size_t> ids =
      rng.SampleWithoutReplacement(n, num_candidates);

  // Candidates in lane blocks: block b holds candidates [b·kBlock, …) as a
  // d × kBlock feature-major panel, the last block zero-padded.
  const std::size_t num_blocks = (num_candidates + kBlock - 1) / kBlock;
  std::vector<double> lanes(num_blocks * d * kBlock, 0.0);
  for (std::size_t i = 0; i < num_candidates; ++i) {
    const double* row = x.RowPtr(ids[i]);
    double* block = lanes.data() + (i / kBlock) * d * kBlock + i % kBlock;
    for (std::size_t p = 0; p < d; ++p) block[p * kBlock] = row[p];
  }
  const auto block_ptr = [&](std::size_t b) {
    return lanes.data() + b * d * kBlock;
  };
  const auto block_size = [&](std::size_t b) {
    return std::min(kBlock, num_candidates - b * kBlock);
  };

  // Seeding: first center uniform, each next center drawn with probability
  // proportional to the candidate's squared distance to its nearest chosen
  // center. When every remaining candidate coincides with a chosen center
  // (total weight 0 — duplicated data), fall back to the smallest unchosen
  // candidate index so exactly m centers always come back. min_d2 starts at
  // +∞, so the first center's pass sets it.
  la::Matrix centers(m, d);
  std::vector<double> min_d2(num_candidates,
                             std::numeric_limits<double>::infinity());
  std::vector<bool> chosen(num_candidates, false);
  const std::size_t seed_grain = BlockGrain(d, 1);
  const auto add_center = [&](std::size_t t, std::size_t pick) {
    const double* row = x.RowPtr(ids[pick]);
    std::copy(row, row + d, centers.RowPtr(t));
    chosen[pick] = true;
    ParallelFor(0, num_blocks, seed_grain, [&](std::size_t lo, std::size_t hi) {
      double d2[kBlock];
      for (std::size_t b = lo; b < hi; ++b) {
        BlockSquaredDistances(block_ptr(b), centers.RowPtr(t), d, d2);
        double* mins = min_d2.data() + b * kBlock;
        for (std::size_t l = 0; l < block_size(b); ++l) {
          if (d2[l] < mins[l]) mins[l] = d2[l];
        }
      }
    });
  };
  add_center(0, static_cast<std::size_t>(rng.UniformInt(num_candidates)));
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
    add_center(t, pick);
  }

  // Lloyd refinement restricted to the candidate subsample. Each lane block
  // stays in cache while the centers stream past in ascending order; a
  // strict < per lane keeps ties on the smaller center index. An empty
  // cluster keeps its previous center (it stays a valid landmark).
  std::vector<std::size_t> assign(num_candidates, 0);
  la::Matrix sums(m, d);
  std::vector<std::size_t> counts(m, 0);
  const std::size_t sweep_grain = BlockGrain(d, m);
  for (std::size_t sweep = 0; sweep < options.refine_iterations; ++sweep) {
    ParallelFor(0, num_blocks, sweep_grain, [&](std::size_t lo,
                                                std::size_t hi) {
      double best[kBlock];
      double d2[kBlock];
      std::size_t best_j[kBlock];
      for (std::size_t b = lo; b < hi; ++b) {
        BlockSquaredDistances(block_ptr(b), centers.RowPtr(0), d, best);
        std::fill(best_j, best_j + kBlock, 0);
        for (std::size_t j = 1; j < m; ++j) {
          BlockSquaredDistances(block_ptr(b), centers.RowPtr(j), d, d2);
          for (std::size_t l = 0; l < kBlock; ++l) {
            if (d2[l] < best[l]) {
              best[l] = d2[l];
              best_j[l] = j;
            }
          }
        }
        std::copy(best_j, best_j + block_size(b), assign.begin() + b * kBlock);
      }
    });
    sums.Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double* srow = sums.RowPtr(assign[i]);
      const double* crow = x.RowPtr(ids[i]);
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

// The weighting half of the anchor row rule. On entry `cols`/`vals` hold one
// row's s selected anchors and their squared distances in rank
// (ascending-distance) order; on exit `vals` holds the normalized
// self-tuning Gaussian weights and both arrays are in ascending anchor order.
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

  const PackedRows packed = PackRows(anchors);
  const std::size_t tile = std::max<std::size_t>(1, options.tile_rows);
  std::vector<std::size_t> row_offsets(n + 1);
  for (std::size_t i = 0; i <= n; ++i) row_offsets[i] = i * s;
  std::vector<std::size_t> cols(n * s);
  std::vector<double> vals(n * s);
  // ParallelFor hands each thread a run of whole tiles; every row depends
  // only on itself, so the spans are write-disjoint and the graph is bitwise
  // identical at every thread count and tile size.
  ParallelFor(0, n, tile, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r0 = begin; r0 < end; r0 += tile) {
      const std::size_t r1 = std::min(r0 + tile, end);
      AnchorRowTile(packed, s, x.RowPtr(r0), r1 - r0, cols.data() + r0 * s,
                    vals.data() + r0 * s);
    }
  });
  return la::CsrMatrix::FromParts(n, m, std::move(row_offsets),
                                  std::move(cols), std::move(vals));
}

void SelectAnchorRow(const double* d2, std::size_t m, std::size_t s,
                     std::size_t* cols, double* weights) {
  // Bounded s-best insertion; `weights` holds the kept squared distances in
  // rank (ascending-distance) order until they are turned into weights.
  // Strict comparisons on both the skip and the shift keep ties on the
  // smaller anchor index.
  std::size_t filled = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double v = d2[j];
    if (filled == s && v >= weights[s - 1]) continue;
    std::size_t q = filled < s ? filled : s - 1;
    while (q > 0 && weights[q - 1] > v) {
      weights[q] = weights[q - 1];
      cols[q] = cols[q - 1];
      --q;
    }
    weights[q] = v;
    cols[q] = j;
    if (filled < s) ++filled;
  }
  WeightAnchorRow(s, cols, weights);
}

void AnchorRowTile(const PackedRows& anchors, std::size_t s, const double* x,
                   std::size_t rows, std::size_t* cols, double* weights) {
  const std::size_t m = anchors.packed.n;
  // Per-thread scratch; capacity sticks across calls.
  static thread_local std::vector<double> d2;
  d2.resize(rows * m);
  SquaredDistanceTile(anchors, x, rows, d2.data());
  for (std::size_t i = 0; i < rows; ++i) {
    SelectAnchorRow(d2.data() + i * m, m, s, cols + i * s, weights + i * s);
  }
}

}  // namespace umvsc::graph
