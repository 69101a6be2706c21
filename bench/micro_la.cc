// Micro-benchmarks of the linear-algebra substrate: GEMM, symmetric
// eigendecomposition, SVD, sparse matvec, Lanczos — plus a single-vs-block
// eigensolver comparison harness at the paper's (n, c) points that emits
// BENCH_eigensolver.json.
//
// Usage:
//   micro_la                  eigensolver + GEMM harness, all google-benchmarks
//   micro_la --smoke          harness only, reduced sizes, asserts that the
//                             block solver needs fewer operator sweeps AND
//                             that the auto-policy's choice (block iff
//                             c >= 16) never costs more than 1.15x the
//                             single-vector wall time (CI gate)
//   micro_la --json=FILE      write the eigensolver harness results
//                             (skinny-SpMM sweep, per-shape legs and policy
//                             decisions) as JSON
//   micro_la --gemm-json=FILE write the GEMM sweep (the backend this build
//                             selected) + the Lanczos wall-time ratios as
//                             JSON
//   micro_la --harness-only   skip the google-benchmark suite

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "la/svd.h"
#include "la/sym_eigen.h"

namespace {

using namespace umvsc;

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  la::Matrix a = la::Matrix::RandomGaussian(n, n, rng);
  la::Matrix b = la::Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_TallGram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  la::Matrix a = la::Matrix::RandomGaussian(n, 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Gram(a));
  }
}
BENCHMARK(BM_TallGram)->Arg(512)->Arg(2048);

void BM_SymmetricEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  la::Matrix a = la::Matrix::RandomGaussian(n, n, rng);
  a.Symmetrize();
  for (auto _ : state) {
    auto r = la::SymmetricEigen(a);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_ThinSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  la::Matrix a = la::Matrix::RandomGaussian(n, 10, rng);
  for (auto _ : state) {
    auto r = la::Svd(a);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ThinSvd)->Arg(256)->Arg(1024)->Arg(4096);

la::CsrMatrix RandomKnnLikeGraph(std::size_t n, std::size_t degree,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < degree; ++d) {
      std::size_t j = static_cast<std::size_t>(rng.UniformInt(n));
      if (j == i) continue;
      const double w = rng.Uniform(0.1, 1.0);
      t.push_back({i, j, w});
      t.push_back({j, i, w});
    }
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(t));
}

void BM_SparseMatVec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::CsrMatrix a = RandomKnnLikeGraph(n, 10, 5);
  la::Vector x(n, 1.0);
  la::Vector y(n);
  for (auto _ : state) {
    y.Fill(0.0);
    a.MultiplyInto(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.NumNonZeros()));
}
BENCHMARK(BM_SparseMatVec)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LanczosTop8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::CsrMatrix a = RandomKnnLikeGraph(n, 10, 6);
  for (auto _ : state) {
    auto r = la::LanczosLargest(a, 8);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LanczosTop8)->Arg(1000)->Arg(5000);

// --- Single-vs-block eigensolver comparison at the paper's (n, c) points ---

struct EigBenchPoint {
  const char* dataset;  // which paper dataset this (n, c) mirrors
  std::size_t n;
  std::size_t c;
};

// kNN-like graph with planted c-cluster structure: ~90% of each node's edges
// stay inside its cluster, so the bottom c Laplacian eigenvalues sit below an
// eigengap — the spectral shape the paper's benchmark graphs actually have,
// and the case the spectral-embedding eigensolves run on. (A structureless
// random expander puts eigenvalues 2..c inside the spectral bulk, which no
// extremal eigensolver resolves quickly and no clustering input looks like.)
la::CsrMatrix PlantedClusterGraph(std::size_t n, std::size_t c,
                                  std::size_t degree, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cluster = i % c;
    for (std::size_t d = 0; d < degree; ++d) {
      std::size_t j;
      if (rng.Uniform() < 0.9) {
        j = cluster + c * static_cast<std::size_t>(rng.UniformInt(n / c));
      } else {
        j = static_cast<std::size_t>(rng.UniformInt(n));
      }
      if (j == i || j >= n) continue;
      const double w = rng.Uniform(0.1, 1.0);
      t.push_back({i, j, w});
      t.push_back({j, i, w});
    }
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(t));
}

struct SolverLeg {
  double seconds = 0.0;
  std::size_t sweeps = 0;   // operator applications (vector or panel)
  std::size_t matvecs = 0;  // Krylov directions advanced (panels × width)
};

struct EigBenchRow {
  EigBenchPoint point;
  double spmv_col_seconds = 0.0;  // c column SpMVs
  double spmm_seconds = 0.0;      // one width-c SpMM
  SolverLeg single_leg;
  SolverLeg block_leg;
  bool auto_block = false;  // the auto-policy's choice at this shape
  // Wall-time cost of the auto-policy's choice relative to the best
  // single-vector leg: block/single when the policy picks block, 1.0 when
  // it picks (i.e. yields to) single. ≤ 1 means auto never loses.
  double AutoTimeRatio() const {
    return auto_block ? block_leg.seconds / single_leg.seconds : 1.0;
  }
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

EigBenchRow RunEigBenchPoint(const EigBenchPoint& point, std::size_t repeats) {
  la::CsrMatrix affinity = PlantedClusterGraph(point.n, point.c, 10, 7);
  auto lap = graph::Laplacian(affinity, graph::LaplacianKind::kSymmetric);
  if (!lap.ok()) {
    std::fprintf(stderr, "laplacian failed: %s\n",
                 lap.status().ToString().c_str());
    std::exit(1);
  }

  EigBenchRow row;
  row.point = point;

  // SpMV-vs-SpMM throughput: c column matvecs against one width-c panel.
  {
    la::Matrix x(point.n, point.c);
    Rng rng(11);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
    la::Vector xv(point.n), yv(point.n);
    for (std::size_t i = 0; i < point.n; ++i) xv[i] = x(i, 0);
    la::Matrix y(point.n, point.c);
    const std::size_t inner = std::max<std::size_t>(1, 200000 / point.n);
    double best_spmv = 1e30, best_spmm = 1e30;
    for (std::size_t r = 0; r < repeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < inner; ++it) {
        for (std::size_t j = 0; j < point.c; ++j) {
          yv.Fill(0.0);
          lap->MultiplyInto(xv, yv);
        }
      }
      best_spmv = std::min(best_spmv, Seconds(t0) / static_cast<double>(inner));
      t0 = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < inner; ++it) {
        y.Fill(0.0);
        lap->MultiplyInto(x, y);
      }
      best_spmm = std::min(best_spmm, Seconds(t0) / static_cast<double>(inner));
    }
    row.spmv_col_seconds = best_spmv;
    row.spmm_seconds = best_spmm;
  }

  // Solver legs at the production tolerance (cluster::SpectralEmbeddingSparse
  // settings). Sweeps count operator applications through wrapper lambdas, so
  // single = matvecs while block = panel applications.
  la::LanczosOptions options;
  options.seed = 29;
  options.max_subspace = std::min(
      point.n, std::max<std::size_t>(12 * point.c + 100, 250));
  options.tolerance = 3e-6;
  for (std::size_t r = 0; r < repeats; ++r) {
    std::size_t sweeps = 0;
    la::SymmetricOperator op = [&lap, &sweeps](const la::Vector& x,
                                               la::Vector& y) {
      ++sweeps;
      lap->MultiplyInto(x, y);
    };
    la::LanczosOptions local = options;
    std::size_t matvecs = 0;
    local.matvec_count = &matvecs;
    auto t0 = std::chrono::steady_clock::now();
    auto eig = la::LanczosSmallest(op, point.n, point.c, 2.0 + 1e-9, local);
    const double sec = Seconds(t0);
    if (!eig.ok()) {
      std::fprintf(stderr, "single-vector solve failed: %s\n",
                   eig.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || sec < row.single_leg.seconds) {
      row.single_leg = {sec, sweeps, matvecs};
    }
  }
  for (std::size_t r = 0; r < repeats; ++r) {
    std::size_t sweeps = 0;
    la::SymmetricBlockOperator op = [&lap, &sweeps](const la::Matrix& x,
                                                    la::Matrix& y) {
      ++sweeps;
      lap->MultiplyInto(x, y);
    };
    la::LanczosOptions local = options;
    std::size_t matvecs = 0;
    local.matvec_count = &matvecs;
    auto t0 = std::chrono::steady_clock::now();
    auto eig =
        la::BlockLanczosSmallest(op, point.n, point.c, 2.0 + 1e-9, local);
    const double sec = Seconds(t0);
    if (!eig.ok()) {
      std::fprintf(stderr, "block solve failed: %s\n",
                   eig.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || sec < row.block_leg.seconds) {
      row.block_leg = {sec, sweeps, matvecs};
    }
  }
  row.auto_block = la::ResolveEigensolveMode(la::EigensolveMode::kAuto,
                                             point.n, point.c) ==
                   la::EigensolveMode::kForceBlock;
  return row;
}

// --- Skinny-SpMM specialization vs the generic cache-blocked kernel ---

struct SkinnyRow {
  std::size_t width = 0;
  double generic_seconds = 0.0;
  double skinny_seconds = 0.0;
};

// Times the register-resident skinny kernel (the b ≤ 12 MultiplyInto
// dispatch) against internal::SpmmGeneric on the same graph/panel, at the
// widths the acceptance gate watches. Both paths are bitwise identical
// (la_block_lanczos_test pins that); this measures only the wall time.
std::vector<SkinnyRow> RunSkinnySweep(std::size_t repeats) {
  const std::size_t n = 2000;  // the Handwritten-scale reference graph
  la::CsrMatrix affinity = PlantedClusterGraph(n, 10, 10, 7);
  auto lap = graph::Laplacian(affinity, graph::LaplacianKind::kSymmetric);
  if (!lap.ok()) {
    std::fprintf(stderr, "laplacian failed: %s\n",
                 lap.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<SkinnyRow> rows;
  std::printf("\nskinny spmm: width-specialized vs generic kernel (n=%zu)\n"
              "%5s | %12s %12s %8s\n",
              n, "b", "generic[s]", "skinny[s]", "speedup");
  for (const std::size_t b : {2, 4, 8}) {
    Rng rng(13);
    la::Matrix x = la::Matrix::RandomGaussian(n, b, rng);
    la::Matrix y(n, b);
    const std::size_t inner = std::max<std::size_t>(1, 400000 / n);
    SkinnyRow row;
    row.width = b;
    double best_gen = 1e30, best_skinny = 1e30;
    for (std::size_t r = 0; r < repeats + 1; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < inner; ++it) {
        y.Fill(0.0);
        la::internal::SpmmGeneric(*lap, x, y);
      }
      best_gen = std::min(best_gen, Seconds(t0) / static_cast<double>(inner));
      t0 = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < inner; ++it) {
        y.Fill(0.0);
        lap->MultiplyInto(x, y);
      }
      best_skinny =
          std::min(best_skinny, Seconds(t0) / static_cast<double>(inner));
    }
    row.generic_seconds = best_gen;
    row.skinny_seconds = best_skinny;
    std::printf("%5zu | %12.3e %12.3e %7.2fx\n", b, best_gen, best_skinny,
                best_gen / best_skinny);
    rows.push_back(row);
  }
  return rows;
}

void WriteEigBenchJson(const std::vector<EigBenchRow>& rows,
                       const std::vector<SkinnyRow>& skinny,
                       const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"eigensolver\",\n  \"tolerance\": 3e-06,\n"
      << "  \"skinny_spmm\": [\n";
  for (std::size_t i = 0; i < skinny.size(); ++i) {
    const SkinnyRow& s = skinny[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"width\": %zu, \"generic_seconds\": %.6e,"
                  " \"skinny_seconds\": %.6e, \"spmm_speedup\": %.3f}%s\n",
                  s.width, s.generic_seconds, s.skinny_seconds,
                  s.generic_seconds / s.skinny_seconds,
                  i + 1 < skinny.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EigBenchRow& r = rows[i];
    char buf[1152];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"dataset\": \"%s\", \"n\": %zu, \"c\": %zu,\n"
        "     \"spmv_col_seconds\": %.6e, \"spmm_seconds\": %.6e,"
        " \"spmm_speedup\": %.3f,\n"
        "     \"single\": {\"seconds\": %.6e, \"sweeps\": %zu,"
        " \"matvecs\": %zu},\n"
        "     \"block\": {\"seconds\": %.6e, \"sweeps\": %zu,"
        " \"matvecs\": %zu, \"block_size\": %zu},\n"
        "     \"sweep_ratio\": %.3f, \"policy\": \"%s\","
        " \"block_over_single\": %.3f, \"time_ratio\": %.3f}%s\n",
        r.point.dataset, r.point.n, r.point.c, r.spmv_col_seconds,
        r.spmm_seconds, r.spmv_col_seconds / r.spmm_seconds,
        r.single_leg.seconds, r.single_leg.sweeps, r.single_leg.matvecs,
        r.block_leg.seconds, r.block_leg.sweeps, r.block_leg.matvecs,
        r.point.c,
        static_cast<double>(r.single_leg.sweeps) /
            static_cast<double>(r.block_leg.sweeps),
        r.auto_block ? "block" : "single",
        r.block_leg.seconds / r.single_leg.seconds, r.AutoTimeRatio(),
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

// Returns the number of gate violations (0 = the perf claims hold): the
// block solver must need fewer operator sweeps than the single-vector
// solver at every shape, and the auto-policy's choice must not cost more
// than 1.15× the single-vector wall time anywhere (time_ratio is 1.0 by
// definition where the policy yields to single — the gate catches the
// policy picking block where block loses). Appends the measured rows to
// *out_rows.
int RunEigensolverComparison(bool smoke, std::vector<EigBenchRow>* out_rows) {
  // The paper's benchmark (n, c) shapes (Table 1); smoke keeps the small
  // ones plus ORL — the c = 40 shape where block wall time historically
  // regressed, so CI watches the auto-policy time ratio there too.
  std::vector<EigBenchPoint> points = {
      {"3-Sources", 169, 6}, {"MSRC-v1", 210, 7},  {"ORL", 400, 40},
      {"BBCSport", 544, 5},  {"Handwritten", 2000, 10},
  };
  if (smoke) points.resize(3);
  const std::size_t repeats = smoke ? 1 : 3;

  std::printf(
      "eigensolver: single-vector vs block Lanczos (tolerance 3e-06)\n"
      "%-12s %6s %4s | %10s %10s %7s | %8s %8s %8s %8s | %6s %7s\n",
      "dataset", "n", "c", "spmv-c[s]", "spmm[s]", "speedup", "sv-sweep",
      "blk-sweep", "ratio", "blk/sv", "policy", "t-ratio");
  std::vector<EigBenchRow> rows;
  int violations = 0;
  for (const EigBenchPoint& p : points) {
    EigBenchRow row = RunEigBenchPoint(p, repeats);
    std::printf(
        "%-12s %6zu %4zu | %10.3e %10.3e %6.2fx | %8zu %8zu %7.2fx %7.2fx "
        "| %6s %6.2fx\n",
        row.point.dataset, row.point.n, row.point.c, row.spmv_col_seconds,
        row.spmm_seconds, row.spmv_col_seconds / row.spmm_seconds,
        row.single_leg.sweeps, row.block_leg.sweeps,
        static_cast<double>(row.single_leg.sweeps) /
            static_cast<double>(row.block_leg.sweeps),
        row.block_leg.seconds / row.single_leg.seconds,
        row.auto_block ? "block" : "single", row.AutoTimeRatio());
    if (row.block_leg.sweeps >= row.single_leg.sweeps) {
      ++violations;
      std::fprintf(stderr,
                   "FAIL: block solver needed >= sweeps at %s (n=%zu, c=%zu)\n",
                   row.point.dataset, row.point.n, row.point.c);
    }
    if (row.AutoTimeRatio() > 1.15) {
      ++violations;
      std::fprintf(stderr,
                   "FAIL: auto-policy picked block at %s (n=%zu, c=%zu) where "
                   "it costs %.2fx single-vector (gate: 1.15x)\n",
                   row.point.dataset, row.point.n, row.point.c,
                   row.AutoTimeRatio());
    }
    rows.push_back(row);
  }
  if (out_rows != nullptr) {
    out_rows->insert(out_rows->end(), rows.begin(), rows.end());
  }
  return violations;
}

// --- GEMM sweep: the compiled backend at the panel shapes ---

struct GemmSweepRow {
  const char* label;  // which solver panel product this shape mirrors
  const char* op;     // "MatTMul" (projection) or "MatMul" (update)
  std::size_t m, n, k;
  double seconds = 0.0;
};

double GemmGflops(const GemmSweepRow& r, double seconds) {
  return 2.0 * static_cast<double>(r.m) * static_cast<double>(r.n) *
         static_cast<double>(r.k) / seconds / 1e9;
}

// Best-of-repeats wall time of one panel product. `tall` is the n×c panel,
// `small` the c×c square factor.
double TimePanelProduct(const la::Matrix& tall, const la::Matrix& small,
                        bool projection, double flops, std::size_t repeats) {
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(4e7 / flops));
  double best = 1e30;
  double sink = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t it = 0; it < inner; ++it) {
      la::Matrix c = projection ? la::MatTMul(tall, tall)
                                : la::MatMul(tall, small);
      sink += c.data()[0];
    }
    best = std::min(best, Seconds(t0) / static_cast<double>(inner));
  }
  benchmark::DoNotOptimize(sink);
  return best;
}

std::vector<GemmSweepRow> RunGemmSweep(bool smoke) {
  // Block-Lanczos panel shapes at the paper's (n, c) points: the projection
  // Hᵢ = Pᵀ·W (MatTMul, k = n) and the panel update W -= P·Hᵢ (MatMul,
  // k = c) — both GEMM flavors the solver's inner loop spends its time in.
  const EigBenchPoint shapes[] = {
      {"ORL", 400, 40},         {"BBCSport", 544, 5},
      {"reference-1000", 1000, 20}, {"Handwritten", 2000, 10},
      {"reference-2000", 2000, 40},
  };
  const std::size_t repeats = smoke ? 1 : 3;

  std::printf(
      "\ngemm: %s backend (packed register-blocked kernel)\n"
      "%-16s %-8s %6s %6s %6s | %9s\n",
      la::simd::NativeBackendName(), "shape", "op", "m", "n", "k", "GF/s");
  std::vector<GemmSweepRow> rows;
  for (const EigBenchPoint& s : shapes) {
    Rng rng(17);
    const la::Matrix tall =
        la::Matrix::RandomGaussian(s.n, s.c, rng);  // Krylov panel
    const la::Matrix small = la::Matrix::RandomGaussian(s.c, s.c, rng);
    for (const bool projection : {true, false}) {
      GemmSweepRow row;
      row.label = s.dataset;
      row.op = projection ? "MatTMul" : "MatMul";
      row.m = projection ? s.c : s.n;
      row.n = s.c;
      row.k = projection ? s.n : s.c;
      const double flops = 2.0 * static_cast<double>(row.m) *
                           static_cast<double>(row.n) *
                           static_cast<double>(row.k);
      row.seconds = TimePanelProduct(tall, small, projection, flops, repeats);
      std::printf("%-16s %-8s %6zu %6zu %6zu | %9.2f\n", row.label, row.op,
                  row.m, row.n, row.k, GemmGflops(row, row.seconds));
      rows.push_back(row);
    }
  }
  return rows;
}

void WriteGemmJson(const std::vector<GemmSweepRow>& rows,
                   const std::vector<EigBenchRow>& eig_rows,
                   const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"gemm\",\n  \"backend\": \""
      << la::simd::NativeBackendName() << "\",\n  \"shapes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GemmSweepRow& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"shape\": \"%s\", \"op\": \"%s\","
        " \"m\": %zu, \"n\": %zu, \"k\": %zu,\n"
        "     \"seconds\": %.6e, \"gflops\": %.3f}%s\n",
        r.label, r.op, r.m, r.n, r.k, r.seconds, GemmGflops(r, r.seconds),
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"lanczos_time_ratios\": [\n";
  for (std::size_t i = 0; i < eig_rows.size(); ++i) {
    const EigBenchRow& r = eig_rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"dataset\": \"%s\", \"n\": %zu, \"c\": %zu,"
                  " \"block_over_single\": %.3f}%s\n",
                  r.point.dataset, r.point.n, r.point.c,
                  r.block_leg.seconds / r.single_leg.seconds,
                  i + 1 < eig_rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool harness_only = false;
  std::string json;
  std::string gemm_json;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--harness-only") {
      harness_only = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = arg.substr(7);
    } else if (arg.rfind("--gemm-json=", 0) == 0) {
      gemm_json = arg.substr(12);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  std::vector<EigBenchRow> eig_rows;
  const int violations = RunEigensolverComparison(smoke, &eig_rows);
  const std::vector<SkinnyRow> skinny_rows = RunSkinnySweep(smoke ? 1 : 3);
  if (!json.empty()) {
    WriteEigBenchJson(eig_rows, skinny_rows, json);
    std::printf("wrote %s\n", json.c_str());
  }
  const std::vector<GemmSweepRow> gemm_rows = RunGemmSweep(smoke);
  if (!gemm_json.empty()) {
    WriteGemmJson(gemm_rows, eig_rows, gemm_json);
    std::printf("wrote %s\n", gemm_json.c_str());
  }
  if (smoke) return violations == 0 ? 0 : 1;
  if (harness_only) return 0;
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
