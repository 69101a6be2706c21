// Micro-benchmarks of the graph substrate: pairwise distances, self-tuning
// kernel, kNN sparsification, Laplacian assembly, and the anchor path's
// landmark selection and bipartite affinity.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/anchors.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "graph/knn_graph.h"
#include "graph/laplacian.h"

namespace {

using namespace umvsc;

la::Matrix RandomData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  return la::Matrix::RandomGaussian(n, d, rng);
}

void BM_PairwiseDistances(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::PairwiseSquaredDistances(x));
  }
}
BENCHMARK(BM_PairwiseDistances)
    ->Args({200, 64})
    ->Args({1000, 64})
    ->Args({1000, 512})
    ->Args({2000, 256});

void BM_SelfTuningKernel(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)), 32, 2);
  la::Matrix d2 = graph::PairwiseSquaredDistances(x);
  for (auto _ : state) {
    auto w = graph::SelfTuningKernel(d2, 10);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_SelfTuningKernel)->Arg(200)->Arg(1000)->Arg(2000);

void BM_BuildKnnGraph(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)), 32, 3);
  la::Matrix d2 = graph::PairwiseSquaredDistances(x);
  auto kernel = graph::SelfTuningKernel(d2, 10);
  for (auto _ : state) {
    auto w = graph::BuildKnnGraph(*kernel, 10);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_BuildKnnGraph)->Arg(200)->Arg(1000)->Arg(2000);

void BM_SparseLaplacian(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)), 32, 4);
  la::Matrix d2 = graph::PairwiseSquaredDistances(x);
  auto kernel = graph::SelfTuningKernel(d2, 10);
  auto w = graph::BuildKnnGraph(*kernel, 10);
  for (auto _ : state) {
    auto l = graph::Laplacian(*w, graph::LaplacianKind::kSymmetric);
    benchmark::DoNotOptimize(l);
  }
}
BENCHMARK(BM_SparseLaplacian)->Arg(1000)->Arg(2000);

void BM_AdaptiveNeighborGraph(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)), 32, 5);
  la::Matrix d2 = graph::PairwiseSquaredDistances(x);
  for (auto _ : state) {
    auto w = graph::AdaptiveNeighborGraph(d2, 10);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_AdaptiveNeighborGraph)->Arg(200)->Arg(1000);

// Anchor shapes as {n, d}, m = 256: 400 × 1024 is a serving-size view (the
// selection's candidate pool is all 400 rows), 200 000 × 8 a large
// low-dimensional one (a 2 048-candidate pool).
void BM_SelectAnchors(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 6);
  graph::AnchorOptions options;
  options.num_anchors = 256;
  for (auto _ : state) {
    auto anchors = graph::SelectAnchors(x, options);
    benchmark::DoNotOptimize(anchors);
  }
}
BENCHMARK(BM_SelectAnchors)
    ->Args({400, 1024})
    ->Args({200000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_BuildAnchorAffinity(benchmark::State& state) {
  la::Matrix x = RandomData(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)), 7);
  graph::AnchorOptions options;
  options.num_anchors = 256;
  la::Matrix anchors = *graph::SelectAnchors(x, options);
  for (auto _ : state) {
    auto z = graph::BuildAnchorAffinity(x, anchors);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_BuildAnchorAffinity)
    ->Args({400, 1024})
    ->Args({200000, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
