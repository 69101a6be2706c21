// Closed-loop serving benchmark of the high-QPS path: an ORL-shaped anchor
// model is fitted once, persisted through serve::ModelSerializer, loaded
// into a warm serve::ModelRegistry, and then hammered with out-of-sample
// queries — a per-point Predict leg (the pre-batching baseline), batched
// Assign legs across batch sizes, and a mixed single/batch closed loop.
// Every leg reports throughput (points/s) and per-call latency quantiles
// (p50/p99), and the run cross-checks the determinism contract: a 512-point
// Assign must be bitwise identical to 512 single-row Predict calls at 1, 2,
// and max threads before any number is written.
//
// The headline number is speedup_batch256: batched Assign throughput at
// batch 256 over the per-point Predict loop. `--smoke` shrinks the model
// and the query counts and turns the gates (label parity AND speedup ≥ 2×)
// into the exit code — the CI mode. The full run writes the committed
// artifact (gate: ≥ 5× on the ORL-shaped model).
//
//   ./serving_qps [--smoke] [--json=PATH]     (default BENCH_serving.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/out_of_sample.h"
#include "serve/batch_assign.h"
#include "serve/model_io.h"
#include "serve/registry.h"

namespace {

using umvsc::ParallelFor;
using umvsc::ScopedNumThreads;
using umvsc::Status;
using umvsc::StatusOr;
using umvsc::Stopwatch;
using umvsc::bench::PeakRssKb;

struct LegStats {
  std::size_t batch_size = 0;
  std::size_t calls = 0;
  std::size_t points = 0;
  double seconds = 0.0;
  double qps = 0.0;      // points per second
  double p50_ms = 0.0;   // per-call latency quantiles
  double p99_ms = 0.0;
};

double QuantileMs(std::vector<double>& latencies, double q) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(latencies.size() - 1));
  return latencies[idx] * 1e3;
}

LegStats FinishLeg(std::size_t batch_size, std::size_t points,
                   double seconds, std::vector<double> latencies) {
  LegStats leg;
  leg.batch_size = batch_size;
  leg.calls = latencies.size();
  leg.points = points;
  leg.seconds = seconds;
  leg.qps = seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
  leg.p50_ms = QuantileMs(latencies, 0.50);
  leg.p99_ms = QuantileMs(latencies, 0.99);
  return leg;
}

/// Rows [begin, begin + count) of `src` as a standalone dataset. Labels are
/// dropped: serve batches are unlabeled by definition (and a slice may not
/// cover every cluster, which Validate would reject).
umvsc::data::MultiViewDataset Slice(const umvsc::data::MultiViewDataset& src,
                                    std::size_t begin, std::size_t count) {
  umvsc::data::MultiViewDataset out;
  out.name = src.name;
  for (const umvsc::la::Matrix& view : src.views) {
    umvsc::la::Matrix m(count, view.cols());
    for (std::size_t i = 0; i < count; ++i) {
      std::copy(view.RowPtr(begin + i), view.RowPtr(begin + i) + view.cols(),
                m.RowPtr(i));
    }
    out.views.push_back(std::move(m));
  }
  return out;
}

int Fail(const char* what) {
  std::fprintf(stderr, "serving_qps: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_serving.json";
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

  using namespace umvsc;

  // ORL-shaped anchor model (three views of 1024/944/1350 features, 40
  // clusters — the face-image benchmark's silhouette); smoke shrinks every
  // axis but keeps the multi-view, many-cluster structure.
  data::MultiViewConfig config;
  config.name = smoke ? "orl-smoke" : "orl-shaped";
  config.num_samples = smoke ? 200 : 400;
  config.num_clusters = smoke ? 10 : 40;
  if (smoke) {
    config.views = {{96, data::ViewQuality::kInformative, 3.6, 0.7},
                    {88, data::ViewQuality::kInformative, 4.0, 0.7},
                    {128, data::ViewQuality::kNoisy, 1.0}};
  } else {
    config.views = {{1024, data::ViewQuality::kInformative, 3.6, 0.7},
                    {944, data::ViewQuality::kInformative, 4.0, 0.7},
                    {1350, data::ViewQuality::kNoisy, 1.0}};
  }
  config.cluster_separation = 2.6;
  config.seed = 7;

  const std::size_t pool = smoke ? 512 : 4096;
  config.num_samples += pool;
  StatusOr<data::MultiViewDataset> generated =
      data::MakeGaussianMultiView(config);
  if (!generated.ok()) return Fail(generated.status().ToString().c_str());
  const std::size_t n_train = config.num_samples - pool;
  data::MultiViewDataset train = Slice(*generated, 0, n_train);
  train.labels.assign(generated->labels.begin(),
                      generated->labels.begin() +
                          static_cast<std::ptrdiff_t>(n_train));
  const data::MultiViewDataset serve_pool = Slice(*generated, n_train, pool);

  mvsc::UnifiedOptions options;
  options.num_clusters = config.num_clusters;
  options.seed = 7;
  options.anchors.enabled = true;
  options.anchors.num_anchors = smoke ? 64 : 256;
  options.anchors.anchor_neighbors = 5;

  Stopwatch watch;
  StatusOr<mvsc::AnchorUnifiedResult> solved =
      mvsc::SolveUnifiedAnchors(train, options);
  if (!solved.ok()) return Fail(solved.status().ToString().c_str());
  const double fit_seconds = watch.ElapsedSeconds();

  StatusOr<mvsc::OutOfSampleModel> fitted =
      mvsc::OutOfSampleModel::FitAnchor(std::move(solved->model));
  if (!fitted.ok()) return Fail(fitted.status().ToString().c_str());

  // Persist → warm registry → assigner: the full serving wiring, so the
  // benchmark exercises exactly what a server would run.
  const std::string model_path = json_path + ".model";
  Status saved = serve::ModelSerializer::Save(*fitted, model_path);
  if (!saved.ok()) return Fail(saved.ToString().c_str());
  const std::string model_bytes = serve::ModelSerializer::Serialize(*fitted);

  serve::ModelRegistry registry;
  watch.Reset();
  Status loaded = registry.LoadFromFile("orl", model_path);
  const double load_seconds = watch.ElapsedSeconds();
  std::remove(model_path.c_str());
  if (!loaded.ok()) return Fail(loaded.ToString().c_str());
  StatusOr<serve::ModelHandle> handle = registry.Get("orl");
  if (!handle.ok()) return Fail(handle.status().ToString().c_str());
  const serve::BatchAssigner assigner(*handle);
  const mvsc::OutOfSampleModel& model = **handle;

  // --- Parity gate first: a whole-batch Assign must equal one single-row
  // Predict per point, bitwise, at every thread count before any
  // throughput is reported. The batch runs 64-row tiles through GemmAdd's
  // 4×8 register tiles, each single row its 1×16 one-row kernel, both
  // against the anchors packed once at FitAnchor.
  const std::size_t parity_points = 512;
  const data::MultiViewDataset parity_batch = Slice(serve_pool, 0,
                                                    parity_points);
  std::vector<std::size_t> single_labels;
  single_labels.reserve(parity_points);
  for (std::size_t i = 0; i < parity_points; ++i) {
    StatusOr<std::vector<std::size_t>> r =
        model.Predict(Slice(serve_pool, i, 1));
    if (!r.ok()) return Fail(r.status().ToString().c_str());
    single_labels.push_back(r->front());
  }
  const std::size_t max_threads = std::max<std::size_t>(8, DefaultNumThreads());
  const std::size_t thread_counts[] = {1, 2, max_threads};
  bool parity = true;
  for (std::size_t t : thread_counts) {
    ScopedNumThreads scope(t);
    StatusOr<std::vector<std::size_t>> batched = assigner.Assign(parity_batch);
    if (!batched.ok()) return Fail(batched.status().ToString().c_str());
    parity = parity && (*batched == single_labels);
  }

  // --- Per-point leg: the pre-batching baseline, one Predict per point on
  // pre-sliced single-point datasets (slicing outside the timed loop).
  const std::size_t per_point_count = smoke ? 256 : 1024;
  std::vector<data::MultiViewDataset> singles;
  singles.reserve(per_point_count);
  for (std::size_t i = 0; i < per_point_count; ++i) {
    singles.push_back(Slice(serve_pool, i % pool, 1));
  }
  std::vector<double> latencies;
  latencies.reserve(per_point_count);
  watch.Reset();
  for (const data::MultiViewDataset& one : singles) {
    Stopwatch call;
    StatusOr<std::vector<std::size_t>> r = model.Predict(one);
    if (!r.ok()) return Fail(r.status().ToString().c_str());
    latencies.push_back(call.ElapsedSeconds());
  }
  const LegStats per_point = FinishLeg(1, per_point_count,
                                       watch.ElapsedSeconds(),
                                       std::move(latencies));

  // --- Batched legs: same query stream, batched through Assign. Smoke
  // legs time at least 16 calls each, so the gated batch-256 ratio is not
  // decided by one or two calls' noise.
  const std::size_t batch_sizes[] = {1, 16, 64, 256, 1024};
  const std::size_t leg_points = smoke ? 512 : 8192;
  const std::size_t min_leg_calls = smoke ? 16 : 1;
  std::vector<LegStats> batched_legs;
  for (std::size_t b : batch_sizes) {
    if (b > pool) continue;
    const std::size_t calls = std::max(min_leg_calls, leg_points / b);
    std::vector<data::MultiViewDataset> batches;
    batches.reserve(calls);
    for (std::size_t i = 0; i < calls; ++i) {
      batches.push_back(Slice(serve_pool, (i * b) % (pool - b + 1), b));
    }
    latencies.clear();
    latencies.reserve(calls);
    watch.Reset();
    for (const data::MultiViewDataset& batch : batches) {
      Stopwatch call;
      StatusOr<std::vector<std::size_t>> r = assigner.Assign(batch);
      if (!r.ok()) return Fail(r.status().ToString().c_str());
      latencies.push_back(call.ElapsedSeconds());
    }
    batched_legs.push_back(
        FinishLeg(b, calls * b, watch.ElapsedSeconds(), std::move(latencies)));
  }

  // --- Mixed closed loop: the realistic arrival pattern — a few singles
  // between bulk batches, all against the registry-held model.
  const std::size_t mixed_batch = smoke ? 64 : 256;
  const std::size_t mixed_target = smoke ? 1024 : 32768;
  std::size_t mixed_points = 0, mixed_singles = 0, mixed_batches = 0;
  watch.Reset();
  std::size_t cursor = 0;
  while (mixed_points < mixed_target) {
    for (int k = 0; k < 3; ++k) {
      StatusOr<std::vector<std::size_t>> r =
          assigner.Assign(singles[cursor % singles.size()]);
      if (!r.ok()) return Fail(r.status().ToString().c_str());
      ++cursor;
      ++mixed_singles;
      ++mixed_points;
    }
    const data::MultiViewDataset batch =
        Slice(serve_pool, (mixed_batches * mixed_batch) %
                              (pool - mixed_batch + 1),
              mixed_batch);
    StatusOr<std::vector<std::size_t>> r = assigner.Assign(batch);
    if (!r.ok()) return Fail(r.status().ToString().c_str());
    ++mixed_batches;
    mixed_points += mixed_batch;
  }
  const double mixed_seconds = watch.ElapsedSeconds();
  const double mixed_qps =
      mixed_seconds > 0.0 ? static_cast<double>(mixed_points) / mixed_seconds
                          : 0.0;

  double speedup256 = 0.0;
  for (const LegStats& leg : batched_legs) {
    if (leg.batch_size == 256) {
      speedup256 = per_point.qps > 0.0 ? leg.qps / per_point.qps : 0.0;
    }
  }

  // --- Report.
  std::printf("serving_qps (%s): model %zu train pts, %zu anchors, %zu "
              "clusters; fit %.2fs, load %.4fs, %zu model bytes\n",
              smoke ? "smoke" : "full", n_train, options.anchors.num_anchors,
              options.num_clusters, fit_seconds, load_seconds,
              model_bytes.size());
  std::printf("  per-point : %8.0f pts/s   p50 %7.3f ms   p99 %7.3f ms\n",
              per_point.qps, per_point.p50_ms, per_point.p99_ms);
  for (const LegStats& leg : batched_legs) {
    std::printf("  batch %-4zu: %8.0f pts/s   p50 %7.3f ms   p99 %7.3f ms\n",
                leg.batch_size, leg.qps, leg.p50_ms, leg.p99_ms);
  }
  std::printf("  mixed     : %8.0f pts/s over %zu pts (%zu singles, %zu "
              "batches of %zu)\n",
              mixed_qps, mixed_points, mixed_singles, mixed_batches,
              mixed_batch);
  std::printf("  speedup at batch 256: %.2fx   parity(1/2/%zu threads): %s\n",
              speedup256, max_threads, parity ? "identical" : "MISMATCH");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open json output");
    std::fprintf(f, "{\n  \"bench\": \"serving_qps\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f,
                 "  \"model\": {\"dataset\": \"%s\", \"train_points\": %zu, "
                 "\"view_dims\": [%zu, %zu, %zu], \"num_clusters\": %zu, "
                 "\"num_anchors\": %zu, \"anchor_neighbors\": %zu, "
                 "\"file_bytes\": %zu, \"fit_seconds\": %.3f, "
                 "\"load_seconds\": %.6f},\n",
                 umvsc::bench::JsonEscape(config.name).c_str(), n_train,
                 config.views[0].dim, config.views[1].dim, config.views[2].dim,
                 options.num_clusters, options.anchors.num_anchors,
                 options.anchors.anchor_neighbors, model_bytes.size(),
                 fit_seconds, load_seconds);
    auto put_leg = [&](const char* name, const LegStats& leg, bool comma) {
      std::fprintf(f,
                   "    {\"leg\": \"%s\", \"batch_size\": %zu, \"calls\": %zu, "
                   "\"points\": %zu, \"seconds\": %.6f, \"qps\": %.1f, "
                   "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   name, leg.batch_size, leg.calls, leg.points, leg.seconds,
                   leg.qps, leg.p50_ms, leg.p99_ms, comma ? "," : "");
    };
    std::fprintf(f, "  \"legs\": [\n");
    put_leg("per_point_predict", per_point, true);
    for (std::size_t i = 0; i < batched_legs.size(); ++i) {
      put_leg("batched_assign", batched_legs[i], i + 1 < batched_legs.size());
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"mixed\": {\"points\": %zu, \"singles\": %zu, "
                 "\"batches\": %zu, \"batch_size\": %zu, \"seconds\": %.6f, "
                 "\"qps\": %.1f},\n",
                 mixed_points, mixed_singles, mixed_batches, mixed_batch,
                 mixed_seconds, mixed_qps);
    std::fprintf(f, "  \"speedup_batch256\": %.3f,\n", speedup256);
    std::fprintf(f,
                 "  \"parity\": {\"points\": %zu, \"thread_counts\": "
                 "[1, 2, %zu], \"identical\": %s},\n",
                 parity_points, max_threads, parity ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_kb\": %zu\n}\n", PeakRssKb());
    std::fclose(f);
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (!parity) return Fail("batched labels diverge from per-point labels");
  if (smoke && speedup256 < 2.0) {
    return Fail("smoke gate: batched speedup at batch 256 fell below 2x");
  }
  return 0;
}
