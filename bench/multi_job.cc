// Multi-tenant job-packing benchmark of exec::JobExecutor: a 100-job
// fig2-shaped sweep (three benchmark datasets × seeds × a (β, γ) grid)
// run as independent solve jobs on the executor, against the plain
// serial loop the sweeps ran before (simulate + build graphs + solve per
// grid cell, nothing shared).
//
// What the executor legs exercise:
//   - StageCache: the ~11 jobs sharing a (dataset, seed) compute the
//     simulation and graph construction ONCE — 66–87% of per-job cost on
//     these shapes — instead of once per cell;
//   - two-level scheduling: each job declares a thread budget and its
//     nested ParallelFor calls partition over that budget.
//
// The determinism gate runs before any number is reported: per-job labels
// and final objectives must be bitwise identical to the serial loop at
// worker counts {1, 2, 8} AND under reversed submission order. Peak RSS
// is sampled after each leg (the getrusage watermark only grows, so the
// executor legs run before the baseline and are attributed by deltas).
//
//   ./multi_job [--smoke] [--json=PATH]        (default BENCH_jobs.json)
//
// --smoke shrinks the sweep and turns the gates (parity AND ≥ 2× jobs/sec
// over the serial loop) into the exit code — the CI mode.

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "exec/executor.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"

namespace {

using umvsc::Status;
using umvsc::StatusOr;
using umvsc::Stopwatch;
using umvsc::bench::PeakRssKb;

struct SweepJob {
  std::string dataset;
  std::uint64_t seed = 0;
  double beta = 1.0;
  double gamma = 2.0;
};

struct JobOutput {
  std::vector<std::size_t> labels;
  double objective = 0.0;
  bool ok = false;
};

/// The shared per-(dataset, seed) prefix both paths need: simulation +
/// per-view graphs. The executor legs key this in the StageCache; the
/// serial baseline recomputes it per job, as fig2_sensitivity does today.
struct SweepStage {
  umvsc::data::MultiViewDataset dataset;
  umvsc::mvsc::MultiViewGraphs graphs;
};

std::shared_ptr<const SweepStage> BuildStage(const std::string& name,
                                             std::uint64_t seed,
                                             double scale) {
  auto stage = std::make_shared<SweepStage>();
  StatusOr<umvsc::data::MultiViewDataset> dataset =
      umvsc::data::SimulateBenchmark(name, seed, scale);
  if (!dataset.ok()) {
    throw std::runtime_error(dataset.status().ToString());
  }
  stage->dataset = std::move(*dataset);
  StatusOr<umvsc::mvsc::MultiViewGraphs> graphs =
      umvsc::mvsc::BuildGraphs(stage->dataset);
  if (!graphs.ok()) {
    throw std::runtime_error(graphs.status().ToString());
  }
  stage->graphs = std::move(*graphs);
  return stage;
}

JobOutput SolveOne(const SweepJob& job, const SweepStage& stage) {
  umvsc::mvsc::UnifiedOptions options;
  options.num_clusters = stage.dataset.NumClusters();
  options.beta = job.beta;
  options.gamma = job.gamma;
  options.seed = job.seed;
  JobOutput out;
  StatusOr<umvsc::mvsc::UnifiedResult> result =
      umvsc::mvsc::UnifiedMVSC(options).Run(stage.graphs);
  if (!result.ok()) return out;
  out.labels = std::move(result->labels);
  out.objective = result->objective_trace.empty()
                      ? 0.0
                      : result->objective_trace.back();
  out.ok = true;
  return out;
}

struct LegStats {
  std::string name;
  std::size_t workers = 0;  ///< 0 = serial loop (no executor)
  bool reversed = false;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  bool parity = true;  ///< vs the serial baseline (filled after it runs)
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t rss_after_kb = 0;
  std::vector<JobOutput> outputs;
};

LegStats RunExecutorLeg(const std::string& name,
                        const std::vector<SweepJob>& jobs, double scale,
                        std::size_t workers, bool reversed,
                        std::size_t thread_budget) {
  LegStats leg;
  leg.name = name;
  leg.workers = workers;
  leg.reversed = reversed;
  leg.outputs.resize(jobs.size());

  umvsc::exec::JobExecutor::Options eopts;
  eopts.num_workers = workers;
  umvsc::exec::JobExecutor executor(eopts);

  Stopwatch watch;
  std::vector<umvsc::exec::JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const std::size_t idx = reversed ? jobs.size() - 1 - k : k;
    umvsc::exec::JobSpec spec;
    spec.name = jobs[idx].dataset;
    spec.thread_budget = thread_budget;
    spec.work = [&jobs, &leg, idx, scale](
                    umvsc::exec::JobContext& context) -> Status {
      const SweepJob& job = jobs[idx];
      char key[160];
      std::snprintf(key, sizeof(key), "%s|%llu|%.4f", job.dataset.c_str(),
                    static_cast<unsigned long long>(job.seed), scale);
      std::shared_ptr<const SweepStage> stage =
          context.stages().Get<SweepStage>(key, [&] {
            return BuildStage(job.dataset, job.seed, scale);
          });
      leg.outputs[idx] = SolveOne(job, *stage);
      return leg.outputs[idx].ok ? Status::OK()
                                 : Status::Internal("solve failed");
    };
    handles.push_back(executor.Submit(std::move(spec)));
  }
  for (const umvsc::exec::JobHandle& handle : handles) handle.Wait();
  leg.seconds = watch.ElapsedSeconds();
  leg.jobs_per_sec = leg.seconds > 0.0
                         ? static_cast<double>(jobs.size()) / leg.seconds
                         : 0.0;
  leg.cache_hits = executor.stages().hits();
  leg.cache_misses = executor.stages().misses();
  leg.rss_after_kb = PeakRssKb();
  return leg;
}

LegStats RunSerialBaseline(const std::vector<SweepJob>& jobs, double scale) {
  LegStats leg;
  leg.name = "serial_loop";
  leg.workers = 0;
  leg.outputs.resize(jobs.size());
  Stopwatch watch;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // The pre-executor sweep shape: every grid cell pays its own
    // simulation + graph construction, nothing shared.
    std::shared_ptr<const SweepStage> stage;
    try {
      stage = BuildStage(jobs[i].dataset, jobs[i].seed, scale);
    } catch (const std::exception&) {
      continue;
    }
    leg.outputs[i] = SolveOne(jobs[i], *stage);
  }
  leg.seconds = watch.ElapsedSeconds();
  leg.jobs_per_sec = leg.seconds > 0.0
                         ? static_cast<double>(jobs.size()) / leg.seconds
                         : 0.0;
  leg.rss_after_kb = PeakRssKb();
  return leg;
}

bool OutputsMatch(const std::vector<JobOutput>& a,
                  const std::vector<JobOutput>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ok || !b[i].ok) return false;
    if (a[i].labels != b[i].labels) return false;
    if (a[i].objective != b[i].objective) return false;  // bitwise
  }
  return true;
}

int Fail(const char* what) {
  std::fprintf(stderr, "multi_job: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_jobs.json";
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

  // The fig2 grid: β sweep at γ=2 plus γ sweep at β=1 (the duplicate
  // (β=1, γ=2) cell kept once) — 12 configs per (dataset, seed).
  const std::vector<double> betas = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3};
  const std::vector<double> gammas = {1.2, 1.5, 3.0, 5.0, 8.0};
  const std::vector<std::string> datasets = {"MSRC-v1", "Handwritten",
                                             "3-Sources"};
  const double scale = smoke ? 0.3 : 0.5;
  const std::size_t seeds = smoke ? 1 : 3;
  const std::size_t job_cap = smoke ? 36 : 100;

  std::vector<SweepJob> jobs;
  for (std::size_t s = 0; s < seeds; ++s) {
    for (const std::string& name : datasets) {
      const std::uint64_t seed = 1 + 1000 * s;
      for (double beta : betas) {
        jobs.push_back({name, seed, beta, 2.0});
      }
      for (double gamma : gammas) {
        jobs.push_back({name, seed, 1.0, gamma});
      }
    }
  }
  if (jobs.size() > job_cap) jobs.resize(job_cap);

  const std::size_t budget = 1;  // per-job nested-parallelism budget
  std::printf("multi_job (%s): %zu jobs, scale %.2f, %zu seeds\n",
              smoke ? "smoke" : "full", jobs.size(), scale, seeds);

  // Executor legs first, serial last: the RSS watermark only grows, so
  // each leg's figure is uncontaminated by later legs.
  std::vector<LegStats> legs;
  if (!smoke) {
    legs.push_back(RunExecutorLeg("exec_w1", jobs, scale, 1, false, budget));
  }
  legs.push_back(RunExecutorLeg("exec_w2", jobs, scale, 2, false, budget));
  if (!smoke) {
    legs.push_back(RunExecutorLeg("exec_w8", jobs, scale, 8, false, budget));
  }
  legs.push_back(
      RunExecutorLeg("exec_w2_reversed", jobs, scale, 2, true, budget));
  LegStats baseline = RunSerialBaseline(jobs, scale);

  bool parity_all = true;
  for (LegStats& leg : legs) {
    leg.parity = OutputsMatch(leg.outputs, baseline.outputs);
    parity_all = parity_all && leg.parity;
  }
  const LegStats* headline = nullptr;
  for (const LegStats& leg : legs) {
    if (leg.name == "exec_w2") headline = &leg;
  }
  const double speedup =
      headline != nullptr && baseline.jobs_per_sec > 0.0
          ? headline->jobs_per_sec / baseline.jobs_per_sec
          : 0.0;

  for (const LegStats& leg : legs) {
    std::printf(
        "  %-18s: %6.2fs  %6.2f jobs/s  parity %s  cache %zu/%zu  "
        "rss %zu KB\n",
        leg.name.c_str(), leg.seconds, leg.jobs_per_sec,
        leg.parity ? "ok" : "MISMATCH", leg.cache_hits, leg.cache_misses,
        leg.rss_after_kb);
  }
  std::printf("  %-18s: %6.2fs  %6.2f jobs/s  rss %zu KB\n",
              baseline.name.c_str(), baseline.seconds,
              baseline.jobs_per_sec, baseline.rss_after_kb);
  std::printf("  speedup vs serial loop (exec_w2): %.2fx   parity: %s\n",
              speedup, parity_all ? "identical" : "MISMATCH");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) return Fail("cannot open json output");
    std::fprintf(f, "{\n  \"bench\": \"multi_job\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f,
                 "  \"sweep\": {\"jobs\": %zu, \"scale\": %.2f, \"seeds\": "
                 "%zu, \"datasets\": [\"MSRC-v1\", \"Handwritten\", "
                 "\"3-Sources\"], \"thread_budget\": %zu},\n",
                 jobs.size(), scale, seeds, budget);
    std::fprintf(f, "  \"legs\": [\n");
    for (const LegStats& leg : legs) {
      std::fprintf(
          f,
          "    {\"leg\": \"%s\", \"workers\": %zu, \"order\": \"%s\", "
          "\"seconds\": %.4f, \"jobs_per_sec\": %.3f, \"parity\": %s, "
          "\"stage_cache\": {\"hits\": %zu, \"misses\": %zu}, "
          "\"rss_after_kb\": %zu},\n",
          leg.name.c_str(), leg.workers,
          leg.reversed ? "reversed" : "forward", leg.seconds,
          leg.jobs_per_sec, leg.parity ? "true" : "false", leg.cache_hits,
          leg.cache_misses, leg.rss_after_kb);
    }
    std::fprintf(f,
                 "    {\"leg\": \"serial_loop\", \"workers\": 0, "
                 "\"order\": \"forward\", \"seconds\": %.4f, "
                 "\"jobs_per_sec\": %.3f, \"parity\": true, \"rss_after_kb\""
                 ": %zu}\n  ],\n",
                 baseline.seconds, baseline.jobs_per_sec,
                 baseline.rss_after_kb);
    std::fprintf(f, "  \"speedup_vs_serial\": %.3f,\n", speedup);
    std::fprintf(f, "  \"parity_all\": %s,\n",
                 parity_all ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_kb\": %zu\n}\n", PeakRssKb());
    std::fclose(f);
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (!parity_all) {
    return Fail("executor outputs diverge from the serial loop");
  }
  if (smoke && speedup < 2.0) {
    return Fail("smoke gate: executor jobs/sec fell below 2x serial");
  }
  return 0;
}
