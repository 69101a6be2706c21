// Determinism and memory tests for the bipartite anchor-graph builder:
// SelectAnchors is a pure function of (x, options) regardless of threads and
// matches the serial k-means++ + Lloyd reference below bit for bit, the
// lane-blocked distance panel matches the scalar Gram formula bit for bit,
// and BuildAnchorAffinity emits a CSR bitwise identical at every tile size
// and thread count (the same contract graph_tiled_test pins for the square
// builders). The allocation hook then proves the builder never touches an
// n × n — or even n × m — dense buffer at n = 20,000.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/anchors.h"
#include "graph/distance.h"
#include "graph/tiled_select.h"

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::size_t> g_max_alloc{0};

void Record(std::size_t size) {
  if (!g_track.load(std::memory_order_relaxed)) return;
  std::size_t prev = g_max_alloc.load(std::memory_order_relaxed);
  while (size > prev &&
         !g_max_alloc.compare_exchange_weak(prev, size,
                                            std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  Record(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  Record(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  Record(size);
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace umvsc::graph {
namespace {

// The k-means++ + Lloyd selection as it stood before its distances moved into
// SIMD lane blocks on the pool: one scalar distance chain per candidate–center
// pair, every step serial, candidates copied row-major. The library must
// match it bit for bit.
namespace reference {

double RowSquaredDistance(const double* a, const double* b, std::size_t d) {
  double s = 0.0;
  for (std::size_t p = 0; p < d; ++p) {
    const double diff = a[p] - b[p];
    s += diff * diff;
  }
  return s;
}

la::Matrix KmeansppRefineAnchors(const la::Matrix& x,
                                 const AnchorOptions& options) {
  Rng rng(options.seed);
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

// graph::BuildAnchorAffinity before it ran the serving row kernel: a
// scalar-chain Gram distance panel, BoundedTopK selection (ties to the
// smaller index), then a separate weighting pass (bandwidth = s-th nearest
// squared distance, Gaussian weights summed in rank order, reciprocal
// normalize, insertion sort to ascending anchor order).
la::CsrMatrix AnchorAffinity(const la::Matrix& x, const la::Matrix& anchors,
                             std::size_t s) {
  const std::size_t n = x.rows();
  const std::size_t m = anchors.rows();
  const std::size_t d = x.cols();
  const la::Vector x_norms = RowSquaredNorms(x);
  const la::Vector a_norms = RowSquaredNorms(anchors);
  std::vector<std::size_t> offsets(n + 1);
  for (std::size_t i = 0; i <= n; ++i) offsets[i] = i * s;
  std::vector<std::size_t> cols(n * s);
  std::vector<double> vals(n * s);
  internal::BoundedTopK selector(s, /*largest=*/false);
  for (std::size_t i = 0; i < n; ++i) {
    selector.Reset();
    for (std::size_t j = 0; j < m; ++j) {
      double dot = 0.0;
      for (std::size_t p = 0; p < d; ++p) dot += x(i, p) * anchors(j, p);
      selector.Offer(std::max(0.0, x_norms[i] + a_norms[j] - 2.0 * dot), j);
    }
    std::size_t* c = cols.data() + i * s;
    double* v = vals.data() + i * s;
    for (std::size_t r = 0; r < s; ++r) {
      c[r] = selector.index(r);
      v[r] = selector.value(r);
    }
    const double sigma2 = std::max(v[s - 1], 1e-300);
    double sum = 0.0;
    for (std::size_t r = 0; r < s; ++r) {
      v[r] = std::exp(-v[r] / sigma2);
      sum += v[r];
    }
    const double inv = 1.0 / sum;
    for (std::size_t r = 0; r < s; ++r) v[r] *= inv;
    for (std::size_t r = 1; r < s; ++r) {
      const std::size_t cr = c[r];
      const double vr = v[r];
      std::size_t q = r;
      while (q > 0 && c[q - 1] > cr) {
        c[q] = c[q - 1];
        v[q] = v[q - 1];
        --q;
      }
      c[q] = cr;
      v[q] = vr;
    }
  }
  return la::CsrMatrix::FromParts(n, m, std::move(offsets), std::move(cols),
                                  std::move(vals));
}

}  // namespace reference

la::Matrix ClusteredFeatures(std::size_t n, std::size_t d,
                             std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Gaussian((i % 4) * 3.0, 1.0);
    }
  }
  return x;
}

void ExpectBitwiseEqual(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_offsets(), b.row_offsets());
  ASSERT_EQ(a.col_indices(), b.col_indices());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.rows() * a.cols() * sizeof(double)),
            0);
}

class AllocationScope {
 public:
  AllocationScope() {
    g_max_alloc.store(0, std::memory_order_relaxed);
    g_track.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_track.store(false, std::memory_order_relaxed); }
  std::size_t max_single_allocation() const {
    return g_max_alloc.load(std::memory_order_relaxed);
  }
};

TEST(AnchorSelectionTest, ValidatesAndShapes) {
  la::Matrix x = ClusteredFeatures(40, 3, 5);
  AnchorOptions options;
  options.num_anchors = 0;
  EXPECT_FALSE(SelectAnchors(x, options).ok());
  options.num_anchors = 41;
  EXPECT_FALSE(SelectAnchors(x, options).ok());
  options.num_anchors = 8;
  for (AnchorSelection sel :
       {AnchorSelection::kUniform, AnchorSelection::kKmeansppRefine}) {
    options.selection = sel;
    StatusOr<la::Matrix> anchors = SelectAnchors(x, options);
    ASSERT_TRUE(anchors.ok());
    EXPECT_EQ(anchors->rows(), 8u);
    EXPECT_EQ(anchors->cols(), 3u);
  }
}

// SelectAnchors against the serial reference at 1, 2 and 8 threads.
void ExpectMatchesReference(const la::Matrix& x, const AnchorOptions& options) {
  const la::Matrix expected = reference::KmeansppRefineAnchors(x, options);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<la::Matrix> got = SelectAnchors(x, options);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(expected, *got);
  }
}

// Shapes: one and three features (lane tails of a one-register row), a
// candidate count that is not a multiple of the 8-candidate block, the
// serving shape (d = 1024, m = 256), and a full 2 048-candidate pool.
TEST(AnchorSelectionTest, MatchesSerialReferenceBitwise) {
  for (const auto& [n, d, m] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{300, 1, 16},
        {300, 3, 16},
        {500, 13, 64},
        {400, 1024, 256},
        {5000, 8, 256}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << d
                                      << " m=" << m);
    AnchorOptions options;
    options.num_anchors = m;
    options.seed = 40 + d;
    ExpectMatchesReference(ClusteredFeatures(n, d, 7 + n + d), options);
  }
}

// Small-integer features: many candidates sit at exactly equal distances
// from two centers, so the first-minimum tie rule decides assignments.
TEST(AnchorSelectionTest, TiedDistancesMatchSerialReferenceBitwise) {
  Rng rng(5);
  la::Matrix x(300, 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t p = 0; p < x.cols(); ++p) {
      x(i, p) = static_cast<double>(rng.UniformInt(4));
    }
  }
  AnchorOptions options;
  options.num_anchors = 10;
  options.seed = 17;
  ExpectMatchesReference(x, options);
}

// Every row identical: after the first center the total weight is zero, so
// each further center takes the smallest unchosen candidate.
TEST(AnchorSelectionTest, DuplicateRowsMatchSerialReferenceBitwise) {
  la::Matrix x(60, 5, 1.25);
  AnchorOptions options;
  options.num_anchors = 12;
  options.seed = 3;
  ExpectMatchesReference(x, options);
}

TEST(AnchorSelectionTest, AsManyAnchorsAsRowsMatchesSerialReference) {
  AnchorOptions options;
  options.num_anchors = 37;
  options.seed = 11;
  ExpectMatchesReference(ClusteredFeatures(37, 6, 41), options);
}

TEST(AnchorSelectionTest, ThreadCountDoesNotChangeAnchors) {
  la::Matrix x = ClusteredFeatures(300, 4, 9);
  AnchorOptions options;
  options.num_anchors = 16;
  options.seed = 21;
  la::Matrix reference;
  {
    ScopedNumThreads serial(1);
    StatusOr<la::Matrix> got = SelectAnchors(x, options);
    ASSERT_TRUE(got.ok());
    reference = *got;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<la::Matrix> got = SelectAnchors(x, options);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(reference, *got);
  }
}

TEST(AnchorSelectionTest, SeedChangesTheDraw) {
  la::Matrix x = ClusteredFeatures(200, 3, 13);
  AnchorOptions options;
  options.num_anchors = 12;
  options.selection = AnchorSelection::kUniform;
  options.seed = 1;
  StatusOr<la::Matrix> a = SelectAnchors(x, options);
  options.seed = 2;
  StatusOr<la::Matrix> b = SelectAnchors(x, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(std::memcmp(a->data(), b->data(),
                        a->rows() * a->cols() * sizeof(double)),
            0);
}

TEST(AnchorAffinityTest, RowsAreStochasticSortedAndSparse) {
  la::Matrix x = ClusteredFeatures(150, 4, 17);
  AnchorOptions selection;
  selection.num_anchors = 20;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  AnchorGraphOptions options;
  options.anchor_neighbors = 6;
  StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z->rows(), 150u);
  EXPECT_EQ(z->cols(), 20u);
  for (std::size_t i = 0; i < z->rows(); ++i) {
    const std::size_t begin = z->row_offsets()[i];
    const std::size_t end = z->row_offsets()[i + 1];
    ASSERT_EQ(end - begin, 6u);
    double sum = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      if (p > begin) {
        EXPECT_LT(z->col_indices()[p - 1], z->col_indices()[p]);
      }
      EXPECT_GT(z->values()[p], 0.0);
      sum += z->values()[p];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AnchorAffinityTest, TileSizeDoesNotChangeTheGraph) {
  la::Matrix x = ClusteredFeatures(83, 3, 19);
  AnchorOptions selection;
  selection.num_anchors = 14;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  AnchorGraphOptions reference_options;
  StatusOr<la::CsrMatrix> reference =
      BuildAnchorAffinity(x, *anchors, reference_options);
  ASSERT_TRUE(reference.ok());
  for (std::size_t tile : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                           std::size_t{64}, std::size_t{4096}}) {
    AnchorGraphOptions options;
    options.tile_rows = tile;
    StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
    ASSERT_TRUE(got.ok()) << "tile=" << tile;
    ExpectBitwiseEqual(*reference, *got);
  }
}

TEST(AnchorAffinityTest, ThreadCountDoesNotChangeTheGraph) {
  la::Matrix x = ClusteredFeatures(97, 5, 23);
  AnchorOptions selection;
  selection.num_anchors = 18;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  la::CsrMatrix reference;
  {
    ScopedNumThreads serial(1);
    AnchorGraphOptions options;
    options.tile_rows = 8;  // several tiles even at one thread
    StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
    ASSERT_TRUE(got.ok());
    reference = *got;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    AnchorGraphOptions options;
    options.tile_rows = 8;
    StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(reference, *got);
  }
}

TEST(AnchorAffinityTest, NearestAnchorDefinitionMatchesBruteForce) {
  la::Matrix x = ClusteredFeatures(60, 3, 29);
  AnchorOptions selection;
  selection.num_anchors = 10;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  AnchorGraphOptions options;
  options.anchor_neighbors = 4;
  StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
  ASSERT_TRUE(z.ok());
  // Brute-force per row: the 4 smallest squared distances (ties to the
  // smaller anchor index) with the self-tuning Gaussian row rule.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::vector<std::pair<double, std::size_t>> d2;
    for (std::size_t j = 0; j < anchors->rows(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < x.cols(); ++p) {
        const double diff = x(i, p) - (*anchors)(j, p);
        s += diff * diff;
      }
      d2.push_back({s, j});
    }
    std::sort(d2.begin(), d2.end());
    const double sigma2 = std::max(d2[3].first, 1e-300);
    double sum = 0.0;
    for (std::size_t r = 0; r < 4; ++r) {
      sum += std::exp(-d2[r].first / sigma2);
    }
    std::vector<std::pair<std::size_t, double>> expected;
    for (std::size_t r = 0; r < 4; ++r) {
      expected.push_back({d2[r].second, std::exp(-d2[r].first / sigma2) / sum});
    }
    std::sort(expected.begin(), expected.end());
    const std::size_t begin = z->row_offsets()[i];
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(z->col_indices()[begin + r], expected[r].first) << "row " << i;
      EXPECT_NEAR(z->values()[begin + r], expected[r].second, 1e-12)
          << "row " << i;
    }
  }
}

// The builder pinned against its pre-unification form (reference::
// AnchorAffinity) for every d within one kc block, where the kernel's dot
// is the plain ascending chain: Gaussian and integer-valued features (the
// latter tie distances exactly), s from 1 up to m, an m that leaves a
// partial register strip, several tile heights and thread counts.
TEST(AnchorAffinityTest, MatchesThePreUnificationBuilderBitwise) {
  const std::size_t n = 61;
  const std::size_t m = 23;
  for (std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{64}, std::size_t{255}, std::size_t{256}}) {
    for (bool tied : {false, true}) {
      la::Matrix x = ClusteredFeatures(n, d, 70 + d);
      if (tied) {
        for (std::size_t i = 0; i < n * d; ++i) {
          x.data()[i] = std::floor(std::fabs(x.data()[i])) - 2.0;
        }
      }
      AnchorOptions selection;
      selection.num_anchors = m;
      selection.selection = AnchorSelection::kUniform;
      StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
      ASSERT_TRUE(anchors.ok());
      for (std::size_t s : {std::size_t{1}, std::size_t{5}, m}) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << d << " tied=" << tied << " s=" << s);
        const la::CsrMatrix expected =
            reference::AnchorAffinity(x, *anchors, s);
        for (std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
          ScopedNumThreads scoped(threads);
          for (std::size_t tile : {std::size_t{1}, std::size_t{16},
                                   std::size_t{128}}) {
            AnchorGraphOptions options;
            options.anchor_neighbors = s;
            options.tile_rows = tile;
            StatusOr<la::CsrMatrix> got =
                BuildAnchorAffinity(x, *anchors, options);
            ASSERT_TRUE(got.ok());
            ExpectBitwiseEqual(expected, *got);
          }
        }
      }
    }
  }
}

TEST(AnchorMemoryTest, BuilderNeverAllocatesAQuadraticBuffer) {
  const std::size_t n = 20000;
  const std::size_t m = 128;
  la::Matrix x = ClusteredFeatures(n, 8, 31);
  AnchorOptions selection;
  selection.num_anchors = m;
  AnchorGraphOptions options;
  options.anchor_neighbors = 5;

  std::size_t peak = 0;
  {
    AllocationScope scope;
    StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
    ASSERT_TRUE(anchors.ok());
    StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
    peak = scope.max_single_allocation();
    ASSERT_TRUE(z.ok());
    EXPECT_EQ(z->rows(), n);
  }
  // The largest legitimate block is the O(n·s) selection/output arrays
  // (a few MB); nothing within a factor 8 of an n × n — and nothing the
  // size of a dense n × m panel either (tile_rows = 128 tiles only).
  EXPECT_LT(peak, n * n * sizeof(double) / 8)
      << "anchor build allocated " << peak << " bytes in one block";
  EXPECT_LT(peak, n * m * sizeof(double) / 2)
      << "anchor build allocated " << peak << " bytes in one block";

  // Positive control on a smaller size: a dense pairwise matrix IS seen by
  // the hook, so a silently broken override cannot fake the bounds above.
  const std::size_t n_small = 1024;
  la::Matrix small = ClusteredFeatures(n_small, 4, 37);
  std::size_t dense_peak = 0;
  {
    AllocationScope scope;
    la::Matrix d2 = PairwiseSquaredDistances(small);
    dense_peak = scope.max_single_allocation();
    ASSERT_EQ(d2.rows(), n_small);
  }
  EXPECT_GE(dense_peak, n_small * n_small * sizeof(double));
}

}  // namespace
}  // namespace umvsc::graph
