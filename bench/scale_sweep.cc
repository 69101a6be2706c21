// Scale sweep of the anchor-graph large-scale path: the unified solver in
// anchor mode on synthetic multi-view Gaussians across an n-sweep up to
// 10⁶ points, recording wall time, peak RSS, and ARI against ground truth.
// At the overlapping sizes (n ≤ 20,000 full, ≤ 10,000 smoke) the exact
// O(n²) path runs too and the sweep records label parity (ARI between the
// two paths' labels) — the evidence that the reduced-space solver clusters
// like the exact solver at a fraction of the cost.
//
// The headline numbers: the time-vs-n log-log slope over the top decade
// (near-linear means ≤ 1.25) and the parity floor (≥ 0.95 everywhere the
// exact path runs). `--smoke` shrinks the sweep to n ≤ 50,000 and turns
// those two thresholds into the exit code — the CI gate.
//
//   ./scale_sweep [--smoke] [--json=PATH]     (default BENCH_scale.json)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "mvsc/unified.h"

namespace {

constexpr double kParityFloor = 0.95;
constexpr double kSlopeCeiling = 1.25;

using umvsc::bench::PeakRssKb;

struct SweepRow {
  std::size_t n = 0;
  double anchor_seconds = 0.0;
  double ari_truth_anchor = 0.0;
  std::size_t peak_rss_kb = 0;  // process peak AFTER the anchor leg
  bool exact_ran = false;
  double exact_seconds = 0.0;
  double ari_truth_exact = 0.0;
  double ari_parity = 0.0;
};

// Shared generator: 2 views (dims 8 and 6), 5 clusters, well separated —
// the regime where both paths should recover the truth, so parity is a
// solver property rather than a coin flip on a hard problem.
umvsc::data::MultiViewDataset MakeDataset(std::size_t n) {
  umvsc::data::MultiViewConfig config;
  config.name = "scale_sweep";
  config.num_samples = n;
  config.num_clusters = 5;
  config.cluster_separation = 6.0;
  config.views = {{8, umvsc::data::ViewQuality::kInformative, 1.0, 0.0},
                  {6, umvsc::data::ViewQuality::kInformative, 1.0, 0.0}};
  config.seed = 71 + n;
  auto dataset = umvsc::data::MakeGaussianMultiView(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "scale_sweep: dataset generation failed: %s\n",
                 dataset.status().message().c_str());
    std::exit(1);
  }
  return *std::move(dataset);
}

umvsc::mvsc::UnifiedOptions BaseOptions(bool anchors) {
  umvsc::mvsc::UnifiedOptions options;
  options.num_clusters = 5;
  options.seed = 3;
  options.anchors.enabled = anchors;
  options.anchors.num_anchors = 256;
  options.anchors.anchor_neighbors = 5;
  return options;
}

double Ari(const std::vector<std::size_t>& a,
           const std::vector<std::size_t>& b) {
  auto ari = umvsc::eval::AdjustedRandIndex(a, b);
  return ari.ok() ? *ari : 0.0;
}

// Least-squares slope of log(seconds) vs log(n) over rows with n >= floor.
double FitSlope(const std::vector<SweepRow>& rows, std::size_t n_floor,
                std::size_t* points) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t count = 0;
  for (const SweepRow& row : rows) {
    if (row.n < n_floor || row.anchor_seconds <= 0.0) continue;
    const double x = std::log(static_cast<double>(row.n));
    const double y = std::log(row.anchor_seconds);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++count;
  }
  *points = count;
  if (count < 2) return 0.0;
  const double denom =
      static_cast<double>(count) * sxx - sx * sx;
  return denom > 0.0 ? (static_cast<double>(count) * sxy - sx * sy) / denom
                     : 0.0;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<SweepRow>& rows, double slope,
               std::size_t slope_points, std::size_t slope_floor,
               bool parity_ok, bool slope_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "scale_sweep: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"scale_sweep\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"config\": {\"views\": 2, \"dims\": [8, 6], \"clusters\": "
               "5, \"separation\": 6.0, \"anchors\": 256, "
               "\"anchor_neighbors\": 5},\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"anchor_seconds\": %.6f, "
                 "\"ari_truth_anchor\": %.6f, \"peak_rss_kb\": %zu",
                 row.n, row.anchor_seconds, row.ari_truth_anchor,
                 row.peak_rss_kb);
    if (row.exact_ran) {
      std::fprintf(f,
                   ",\n     \"exact_seconds\": %.6f, \"ari_truth_exact\": "
                   "%.6f, \"ari_parity\": %.6f",
                   row.exact_seconds, row.ari_truth_exact, row.ari_parity);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"slope_loglog\": %.4f,\n  \"slope_points\": %zu,\n"
               "  \"slope_n_floor\": %zu,\n",
               slope, slope_points, slope_floor);
  std::fprintf(f, "  \"parity_floor\": %.2f,\n  \"slope_ceiling\": %.2f,\n",
               kParityFloor, kSlopeCeiling);
  std::fprintf(f, "  \"parity_ok\": %s,\n  \"slope_ok\": %s\n}\n",
               parity_ok ? "true" : "false", slope_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umvsc;
  bool smoke = false;
  std::string json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<std::size_t> sizes;
  std::size_t exact_cap, slope_floor;
  if (smoke) {
    sizes = {2000, 5000, 10000, 20000, 50000};
    exact_cap = 10000;
    slope_floor = 5000;
  } else {
    sizes = {2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000};
    exact_cap = 20000;
    slope_floor = 100000;  // the top decade: 10⁵ … 10⁶
  }

  // Untimed warmup so pool start-up and first-touch page faults stay
  // outside every timed leg.
  {
    data::MultiViewDataset warm = MakeDataset(2000);
    auto result = mvsc::UnifiedMVSC(BaseOptions(true)).Run(warm);
    if (!result.ok()) {
      std::fprintf(stderr, "scale_sweep: warmup failed: %s\n",
                   result.status().message().c_str());
      return 1;
    }
  }

  std::printf("Anchor-path scale sweep%s (m=256, s=5, c=5, V=2)\n",
              smoke ? " [smoke]" : "");
  std::printf("%9s %12s %10s %12s %12s %10s\n", "n", "anchor sec",
              "ARI(truth)", "peak RSS MB", "exact sec", "parity");

  std::vector<SweepRow> rows;
  bool parity_ok = true;
  // Ascending n so ru_maxrss (monotone per process) tracks each leg's peak:
  // the n-th reading is an upper bound set by the largest problem so far,
  // which IS the current one.
  for (std::size_t n : sizes) {
    SweepRow row;
    row.n = n;
    data::MultiViewDataset dataset = MakeDataset(n);

    Stopwatch watch;
    auto anchored = mvsc::UnifiedMVSC(BaseOptions(true)).Run(dataset);
    row.anchor_seconds = watch.ElapsedSeconds();
    if (!anchored.ok()) {
      std::fprintf(stderr, "scale_sweep: anchor solve failed at n=%zu: %s\n",
                   n, anchored.status().message().c_str());
      return 1;
    }
    row.peak_rss_kb = PeakRssKb();
    row.ari_truth_anchor = Ari(anchored->labels, dataset.labels);

    if (n <= exact_cap) {
      watch.Reset();
      auto exact = mvsc::UnifiedMVSC(BaseOptions(false)).Run(dataset);
      row.exact_seconds = watch.ElapsedSeconds();
      if (!exact.ok()) {
        std::fprintf(stderr, "scale_sweep: exact solve failed at n=%zu: %s\n",
                     n, exact.status().message().c_str());
        return 1;
      }
      row.exact_ran = true;
      row.ari_truth_exact = Ari(exact->labels, dataset.labels);
      row.ari_parity = Ari(anchored->labels, exact->labels);
      if (row.ari_parity < kParityFloor) parity_ok = false;
    }

    std::printf("%9zu %12.3f %10.4f %12.1f", row.n, row.anchor_seconds,
                row.ari_truth_anchor,
                static_cast<double>(row.peak_rss_kb) / 1024.0);
    if (row.exact_ran) {
      std::printf(" %12.3f %10.4f\n", row.exact_seconds, row.ari_parity);
    } else {
      std::printf(" %12s %10s\n", "-", "-");
    }
    rows.push_back(row);
  }

  std::size_t slope_points = 0;
  const double slope = FitSlope(rows, slope_floor, &slope_points);
  const bool slope_ok = slope_points < 2 || slope <= kSlopeCeiling;
  std::printf("log-log slope over n >= %zu: %.3f (%zu points, ceiling %.2f)\n",
              slope_floor, slope, slope_points, kSlopeCeiling);

  WriteJson(json_path, smoke, rows, slope, slope_points, slope_floor,
            parity_ok, slope_ok);

  if (smoke && (!parity_ok || !slope_ok)) {
    std::fprintf(stderr,
                 "scale_sweep: FAILED gate (parity_ok=%d slope_ok=%d)\n",
                 parity_ok, slope_ok);
    return 1;
  }
  return 0;
}
