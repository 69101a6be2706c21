// Micro-benchmarks of the clustering substrate: K-means, spectral
// embedding, Yu–Shi discretization, GPI, and the full unified solver.

#include <benchmark/benchmark.h>

#include "cluster/gpi.h"
#include "cluster/kmeans.h"
#include "cluster/rotation.h"
#include "cluster/spectral.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "la/qr.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"

namespace {

using namespace umvsc;

data::MultiViewDataset Dataset(std::size_t n, std::size_t c,
                               std::uint64_t seed) {
  data::MultiViewConfig config;
  config.num_samples = n;
  config.num_clusters = c;
  config.views = {{24, data::ViewQuality::kInformative, 0.6},
                  {12, data::ViewQuality::kWeak, 1.0},
                  {16, data::ViewQuality::kNoisy, 1.0}};
  config.seed = seed;
  auto d = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(d.ok(), "bench dataset generation failed");
  return std::move(*d);
}

void BM_KMeans(benchmark::State& state) {
  data::MultiViewDataset d = Dataset(static_cast<std::size_t>(state.range(0)),
                                     8, 1);
  cluster::KMeansOptions options;
  options.num_clusters = 8;
  options.restarts = 10;
  for (auto _ : state) {
    auto r = cluster::KMeans(d.views[0], options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_KMeans)->Arg(500)->Arg(2000);

void BM_SpectralEmbeddingSparse(benchmark::State& state) {
  data::MultiViewDataset d = Dataset(static_cast<std::size_t>(state.range(0)),
                                     8, 2);
  auto graphs = mvsc::BuildGraphs(d);
  UMVSC_CHECK(graphs.ok(), "graph build failed");
  for (auto _ : state) {
    auto f = cluster::SpectralEmbeddingSparse(graphs->affinities[0], 8, true);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_SpectralEmbeddingSparse)->Arg(500)->Arg(2000);

// Args: {n, c}. {200 000, 5} is the anchor fit's shape, where every sweep
// touches an 8 MB F·R and the restarts fan out over the pool.
void BM_Discretize(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  la::Matrix f = la::Orthonormalize(la::Matrix::RandomGaussian(n, c, rng));
  cluster::RotationOptions options;
  for (auto _ : state) {
    auto r = cluster::DiscretizeEmbedding(f, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Discretize)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({200000, 5})
    ->Unit(benchmark::kMillisecond);

// One reduced-path Y-step (F = B·G, F·R, argmax, Ŷ, residual, BᵀŶ) at
// Args {n, p, c}: {200 000, 13, 5} is the anchor fit's alternation shape,
// {50 000, 21, 5} the stream's re-solve window.
void BM_YStep(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = static_cast<std::size_t>(state.range(1));
  const auto c = static_cast<std::size_t>(state.range(2));
  const la::Matrix basis =
      la::Orthonormalize(la::Matrix::RandomGaussian(n, p, rng));
  const la::Matrix g = la::Orthonormalize(la::Matrix::RandomGaussian(p, c, rng));
  const la::Matrix r = la::Orthonormalize(la::Matrix::RandomGaussian(c, c, rng));
  cluster::YStepOptions options;
  options.repair_empty = true;
  cluster::YStepBuffers buffers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::YStep(basis, &g, r, options, buffers));
  }
}
BENCHMARK(BM_YStep)
    ->Args({200000, 13, 5})
    ->Args({50000, 21, 5})
    ->Unit(benchmark::kMillisecond);

void BM_GpiSparse(benchmark::State& state) {
  data::MultiViewDataset d = Dataset(static_cast<std::size_t>(state.range(0)),
                                     8, 4);
  auto graphs = mvsc::BuildGraphs(d);
  UMVSC_CHECK(graphs.ok(), "graph build failed");
  Rng rng(5);
  const std::size_t n = graphs->NumSamples();
  la::Matrix b = la::Matrix::RandomGaussian(n, 8, rng);
  la::Matrix f0 = la::Orthonormalize(la::Matrix::RandomGaussian(n, 8, rng));
  cluster::GpiOptions options;
  options.max_iterations = 30;
  for (auto _ : state) {
    auto r = cluster::GeneralizedPowerIteration(graphs->laplacians[0], b, f0,
                                                options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GpiSparse)->Arg(500)->Arg(2000);

void BM_UnifiedSolver(benchmark::State& state) {
  data::MultiViewDataset d = Dataset(static_cast<std::size_t>(state.range(0)),
                                     8, 6);
  auto graphs = mvsc::BuildGraphs(d);
  UMVSC_CHECK(graphs.ok(), "graph build failed");
  mvsc::UnifiedOptions options;
  options.num_clusters = 8;
  for (auto _ : state) {
    auto r = mvsc::UnifiedMVSC(options).Run(*graphs);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UnifiedSolver)->Arg(500)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
