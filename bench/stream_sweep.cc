// Streaming drift sweep: StreamingUnifiedMVSC on a seeded drift/skew
// mini-batch stream (heavy-tailed cluster draws, temporal mean-shift drift)
// against the ORACLE that runs a full cold re-solve over the window at
// every batch. Per batch the sweep records wall time, Lanczos matvecs,
// re-solve triggers, ARI against ground truth for both tracks, and the
// partition agreement between them; a third pass re-runs the incremental
// track at 1 thread and checks the labels are bitwise identical — the
// streaming determinism contract.
//
// The headline number is `total_speedup`: the oracle's wall time over all
// batches divided by the incremental track's, full re-solves included. The
// gates: steady-state incremental updates (`incremental_speedup`, batches
// without a re-solve) at least `kSpeedupFloor`× faster than the oracle's
// full re-solves at the same window, and the cumulative (mean over
// batches) truth-ARI within `kAriGapCeiling` of the oracle's. `--smoke`
// shrinks the stream and turns the thresholds into the exit code — the CI
// gate.
//
//   ./stream_sweep [--smoke] [--json=PATH]     (default BENCH_stream.json)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "stream/streaming_unified.h"

namespace {

constexpr double kAriGapCeiling = 0.03;

using umvsc::bench::PeakRssKb;

struct SweepConfig {
  std::size_t batch_size = 2500;
  std::size_t num_batches = 40;
  std::size_t window = 50000;
  std::size_t drift_start = 24;
  double drift_rate = 0.08;
  double speedup_floor = 5.0;
};

struct BatchRow {
  std::size_t batch = 0;
  std::size_t window_size = 0;
  double inc_seconds = 0.0;
  double oracle_seconds = 0.0;
  bool inc_full_resolve = false;
  std::string resolve_reason;
  std::size_t inc_matvecs = 0;
  std::size_t oracle_matvecs = 0;
  double ari_inc_truth = 0.0;
  double ari_oracle_truth = 0.0;
  double ari_inc_oracle = 0.0;
  bool thread_invariant = true;
};

umvsc::data::DriftStreamConfig MakeStream(const SweepConfig& cfg) {
  umvsc::data::DriftStreamConfig config;
  config.name = "stream_sweep";
  config.batch_size = cfg.batch_size;
  config.num_clusters = 5;
  config.views = {{10, umvsc::data::ViewQuality::kInformative, 0.5},
                  {8, umvsc::data::ViewQuality::kInformative, 0.8},
                  {6, umvsc::data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 6.0;
  config.heavy_tail = 0.5;
  config.drift_rate = cfg.drift_rate;
  config.drift_start_batch = cfg.drift_start;
  config.seed = 29;
  return config;
}

umvsc::stream::StreamingOptions MakeOptions(const SweepConfig& cfg,
                                            bool oracle) {
  umvsc::stream::StreamingOptions options;
  options.unified.num_clusters = 5;
  options.unified.seed = 3;
  options.unified.anchors.num_anchors = 256;
  options.unified.anchors.anchor_neighbors = 5;
  options.window_capacity = cfg.window;
  options.always_full_resolve = oracle;
  return options;
}

double Ari(const std::vector<std::size_t>& a,
           const std::vector<std::size_t>& b) {
  auto ari = umvsc::eval::AdjustedRandIndex(a, b);
  return ari.ok() ? *ari : 0.0;
}

// One pass over the whole stream; per-batch labels + timings out.
struct PassResult {
  std::vector<std::vector<std::size_t>> labels;
  std::vector<std::vector<std::size_t>> truth;
  std::vector<double> seconds;
  std::vector<std::size_t> matvecs;
  std::vector<bool> full_resolve;
  std::vector<std::string> reasons;
  std::vector<std::size_t> window_sizes;
};

PassResult RunPass(const SweepConfig& cfg, bool oracle) {
  auto gen = umvsc::data::DriftStreamGenerator::Create(MakeStream(cfg));
  if (!gen.ok()) {
    std::fprintf(stderr, "stream_sweep: generator: %s\n",
                 gen.status().message().c_str());
    std::exit(1);
  }
  auto stream = umvsc::stream::StreamingUnifiedMVSC::Create(
      MakeOptions(cfg, oracle));
  if (!stream.ok()) {
    std::fprintf(stderr, "stream_sweep: stream: %s\n",
                 stream.status().message().c_str());
    std::exit(1);
  }
  PassResult pass;
  std::vector<std::size_t> truth_window;
  for (std::size_t t = 0; t < cfg.num_batches; ++t) {
    auto batch = gen->NextBatch();
    if (!batch.ok()) {
      std::fprintf(stderr, "stream_sweep: batch %zu: %s\n", t,
                   batch.status().message().c_str());
      std::exit(1);
    }
    truth_window.insert(truth_window.end(), batch->labels.begin(),
                        batch->labels.end());
    if (truth_window.size() > cfg.window) {
      truth_window.erase(
          truth_window.begin(),
          truth_window.end() - static_cast<std::ptrdiff_t>(cfg.window));
    }
    umvsc::Stopwatch watch;
    auto update = stream->Ingest(*batch);
    const double seconds = watch.ElapsedSeconds();
    if (!update.ok()) {
      std::fprintf(stderr, "stream_sweep: ingest %zu: %s\n", t,
                   update.status().message().c_str());
      std::exit(1);
    }
    pass.labels.push_back(update->labels);
    pass.truth.push_back(truth_window);
    pass.seconds.push_back(seconds);
    pass.matvecs.push_back(update->lanczos_matvecs);
    pass.full_resolve.push_back(update->full_resolve);
    pass.reasons.push_back(update->resolve_reason);
    pass.window_sizes.push_back(update->window_size);
  }
  return pass;
}

// The sweep's scalar results, in the order the JSON lists them.
struct Summary {
  double total_inc_seconds = 0.0;
  double total_oracle_seconds = 0.0;
  double total_speedup = 0.0;
  double mean_inc_seconds = 0.0;
  double mean_oracle_seconds = 0.0;
  double speedup = 0.0;
  double cum_inc = 0.0;
  double cum_oracle = 0.0;
  double ari_gap = 0.0;
  std::size_t resolves = 0;
  bool determinism_ok = true;
  bool speedup_ok = false;
  bool ari_ok = false;
};

void WriteJson(const std::string& path, bool smoke, const SweepConfig& cfg,
               const std::vector<BatchRow>& rows, const Summary& sum) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "stream_sweep: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"stream_sweep\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"config\": {\"batch_size\": %zu, \"num_batches\": %zu, "
               "\"window\": %zu, \"views\": 3, \"clusters\": 5, "
               "\"heavy_tail\": 0.5, \"drift_rate\": %.3f, "
               "\"drift_start_batch\": %zu, \"anchors\": 256, "
               "\"anchor_neighbors\": 5},\n",
               cfg.batch_size, cfg.num_batches, cfg.window, cfg.drift_rate,
               cfg.drift_start);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BatchRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"batch\": %zu, \"window\": %zu, \"inc_seconds\": %.6f, "
        "\"oracle_seconds\": %.6f, \"inc_full_resolve\": %s, "
        "\"resolve_reason\": \"%s\", \"inc_matvecs\": %zu, "
        "\"oracle_matvecs\": %zu, \"ari_inc_truth\": %.6f, "
        "\"ari_oracle_truth\": %.6f, \"ari_inc_oracle\": %.6f, "
        "\"thread_invariant\": %s}%s\n",
        row.batch, row.window_size, row.inc_seconds, row.oracle_seconds,
        row.inc_full_resolve ? "true" : "false",
        umvsc::bench::JsonEscape(row.resolve_reason).c_str(), row.inc_matvecs,
        row.oracle_matvecs, row.ari_inc_truth, row.ari_oracle_truth,
        row.ari_inc_oracle, row.thread_invariant ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"total_speedup\": %.3f,\n"
               "  \"total_incremental_seconds\": %.6f,\n"
               "  \"total_oracle_seconds\": %.6f,\n"
               "  \"mean_incremental_seconds\": %.6f,\n"
               "  \"mean_oracle_seconds\": %.6f,\n"
               "  \"incremental_speedup\": %.3f,\n"
               "  \"cumulative_ari_incremental\": %.6f,\n"
               "  \"cumulative_ari_oracle\": %.6f,\n"
               "  \"ari_gap\": %.6f,\n"
               "  \"full_resolves_triggered\": %zu,\n",
               sum.total_speedup, sum.total_inc_seconds,
               sum.total_oracle_seconds, sum.mean_inc_seconds,
               sum.mean_oracle_seconds, sum.speedup, sum.cum_inc,
               sum.cum_oracle, sum.ari_gap, sum.resolves);
  std::fprintf(f, "  \"peak_rss_kb\": %zu,\n", PeakRssKb());
  std::fprintf(f,
               "  \"speedup_floor\": %.2f,\n  \"ari_gap_ceiling\": %.2f,\n",
               cfg.speedup_floor, kAriGapCeiling);
  std::fprintf(f,
               "  \"determinism_ok\": %s,\n  \"speedup_ok\": %s,\n"
               "  \"ari_gap_ok\": %s\n}\n",
               sum.determinism_ok ? "true" : "false",
               sum.speedup_ok ? "true" : "false", sum.ari_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umvsc;
  bool smoke = false;
  std::string json_path = "BENCH_stream.json";
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

  SweepConfig cfg;
  if (smoke) {
    cfg.batch_size = 500;
    cfg.num_batches = 16;
    cfg.window = 6000;
    cfg.drift_start = 12;
    cfg.drift_rate = 0.20;
    cfg.speedup_floor = 2.0;  // small windows blunt the asymptotic gap
  }

  // Untimed warmup: pool start-up and first-touch page faults stay outside
  // the timed legs.
  {
    SweepConfig warm_cfg = cfg;
    warm_cfg.batch_size = 1000;
    warm_cfg.num_batches = 1;
    warm_cfg.window = 1000;
    RunPass(warm_cfg, /*oracle=*/false);
  }

  std::printf("Streaming drift sweep%s (window=%zu, batch=%zu, %zu batches, "
              "drift %.2f from batch %zu)\n",
              smoke ? " [smoke]" : "", cfg.window, cfg.batch_size,
              cfg.num_batches, cfg.drift_rate, cfg.drift_start);

  PassResult inc = RunPass(cfg, /*oracle=*/false);
  PassResult oracle = RunPass(cfg, /*oracle=*/true);
  // Determinism leg: the incremental track again, single-threaded. The
  // contract says every batch's labels (and trigger pattern) are bitwise
  // identical at any thread count.
  PassResult inc_t1;
  {
    ScopedNumThreads single(1);
    inc_t1 = RunPass(cfg, /*oracle=*/false);
  }

  std::printf("%6s %9s %11s %11s %9s %9s %9s  %s\n", "batch", "window",
              "inc sec", "oracle sec", "ARI inc", "ARI orac", "agree",
              "resolve");
  std::vector<BatchRow> rows;
  Summary sum;
  double inc_steady = 0.0, oracle_steady = 0.0;
  std::size_t steady = 0;
  for (std::size_t t = 0; t < cfg.num_batches; ++t) {
    BatchRow row;
    row.batch = t;
    row.window_size = inc.window_sizes[t];
    row.inc_seconds = inc.seconds[t];
    row.oracle_seconds = oracle.seconds[t];
    row.inc_full_resolve = inc.full_resolve[t];
    row.resolve_reason = inc.reasons[t];
    row.inc_matvecs = inc.matvecs[t];
    row.oracle_matvecs = oracle.matvecs[t];
    row.ari_inc_truth = Ari(inc.labels[t], inc.truth[t]);
    row.ari_oracle_truth = Ari(oracle.labels[t], oracle.truth[t]);
    row.ari_inc_oracle = Ari(inc.labels[t], oracle.labels[t]);
    row.thread_invariant = inc.labels[t] == inc_t1.labels[t] &&
                           inc.reasons[t] == inc_t1.reasons[t];
    sum.determinism_ok = sum.determinism_ok && row.thread_invariant;
    sum.cum_inc += row.ari_inc_truth;
    sum.cum_oracle += row.ari_oracle_truth;
    sum.total_inc_seconds += row.inc_seconds;
    sum.total_oracle_seconds += row.oracle_seconds;
    if (t > 0 && !row.inc_full_resolve) {
      // Steady state: incremental updates vs the oracle's re-solves on the
      // SAME batches (first batch excluded — both tracks solve cold there).
      inc_steady += row.inc_seconds;
      oracle_steady += row.oracle_seconds;
      ++steady;
    }
    if (t > 0 && row.inc_full_resolve) ++sum.resolves;
    std::printf("%6zu %9zu %11.4f %11.4f %9.4f %9.4f %9.4f  %s%s\n", t,
                row.window_size, row.inc_seconds, row.oracle_seconds,
                row.ari_inc_truth, row.ari_oracle_truth, row.ari_inc_oracle,
                row.resolve_reason.c_str(),
                row.thread_invariant ? "" : "  THREAD-DIVERGED");
    rows.push_back(std::move(row));
  }
  sum.cum_inc /= static_cast<double>(cfg.num_batches);
  sum.cum_oracle /= static_cast<double>(cfg.num_batches);
  sum.total_speedup = sum.total_inc_seconds > 0.0
                          ? sum.total_oracle_seconds / sum.total_inc_seconds
                          : 0.0;
  sum.mean_inc_seconds =
      steady > 0 ? inc_steady / static_cast<double>(steady) : 0.0;
  sum.mean_oracle_seconds =
      steady > 0 ? oracle_steady / static_cast<double>(steady) : 0.0;
  sum.speedup = sum.mean_inc_seconds > 0.0
                    ? sum.mean_oracle_seconds / sum.mean_inc_seconds
                    : 0.0;
  sum.ari_gap = sum.cum_oracle - sum.cum_inc;
  sum.speedup_ok = sum.speedup >= cfg.speedup_floor;
  sum.ari_ok = sum.ari_gap <= kAriGapCeiling;

  std::printf(
      "\ntotal: incremental %.2fs vs oracle %.2fs over %zu batches — %.2fx\n"
      "steady-state: incremental %.4fs vs oracle %.4fs per batch — "
      "%.1fx (floor %.1fx)\ncumulative ARI: incremental %.4f vs oracle "
      "%.4f — gap %.4f (ceiling %.2f)\nre-solves triggered: %zu; "
      "thread-bitwise labels: %s\n",
      sum.total_inc_seconds, sum.total_oracle_seconds, cfg.num_batches,
      sum.total_speedup, sum.mean_inc_seconds, sum.mean_oracle_seconds,
      sum.speedup, cfg.speedup_floor, sum.cum_inc, sum.cum_oracle,
      sum.ari_gap, kAriGapCeiling, sum.resolves,
      sum.determinism_ok ? "yes" : "NO");

  if (!json_path.empty()) WriteJson(json_path, smoke, cfg, rows, sum);

  if (smoke && !(sum.speedup_ok && sum.ari_ok && sum.determinism_ok)) {
    std::fprintf(stderr, "stream_sweep: smoke gate FAILED\n");
    return 1;
  }
  return 0;
}
