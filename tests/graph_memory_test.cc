// Allocation regression test for the tiled graph construction: building a
// kNN graph straight from features must never allocate an n × n buffer.
// Global operator new/delete are overridden IN THIS BINARY ONLY to track the
// largest single allocation made while tracking is enabled; the dense
// pipeline is measured alongside as a positive control that the hook sees
// n²-sized buffers when they do happen.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/distance.h"
#include "graph/knn_graph.h"

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

la::Matrix GaussianFeatures(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.Gaussian();
  }
  return x;
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

TEST(GraphMemoryTest, TiledBuildNeverAllocatesAQuadraticBuffer) {
  const std::size_t n = 1024;
  const std::size_t k = 10;
  la::Matrix x = GaussianFeatures(n, 8, 3);
  const std::size_t quadratic = n * n * sizeof(double);

  std::size_t tiled_peak = 0;
  {
    AllocationScope scope;
    StatusOr<la::CsrMatrix> w = BuildKnnGraphFromFeatures(x, k);
    tiled_peak = scope.max_single_allocation();
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w->IsSymmetric(1e-12));
  }
  // The largest buffer the tiled path may hold is a per-thread
  // 128 × n panel (1 MB at n = 1024), the packed copy of x and O(n·k)
  // output arrays — nothing within a factor 2 of n² doubles.
  EXPECT_LT(tiled_peak, quadratic / 2)
      << "tiled build allocated " << tiled_peak << " bytes in one block";

  // Positive control: the dense distance matrix IS an n × n allocation, so
  // a silently broken hook cannot fake the assertion above.
  std::size_t dense_peak = 0;
  {
    AllocationScope scope;
    la::Matrix d2 = PairwiseSquaredDistances(x);
    dense_peak = scope.max_single_allocation();
    ASSERT_EQ(d2.rows(), n);
  }
  EXPECT_GE(dense_peak, quadratic);
}

TEST(GraphMemoryTest, AdaptiveTiledBuildStaysSubquadratic) {
  const std::size_t n = 768;
  la::Matrix x = GaussianFeatures(n, 6, 5);
  std::size_t peak = 0;
  {
    AllocationScope scope;
    StatusOr<la::CsrMatrix> w = AdaptiveNeighborGraphFromFeatures(x, 9);
    peak = scope.max_single_allocation();
    ASSERT_TRUE(w.ok());
  }
  EXPECT_LT(peak, n * n * sizeof(double) / 2);
}

}  // namespace
}  // namespace umvsc::graph
