// job_sweep: the fig2 grid of bench/multi_job as 100 UnifiedMVSC::Run jobs
// on a JobExecutor, each job's simulation and graph build keyed in the
// StageCache. The only workload in `exec`, and the only one on the exact
// path (k-NN graphs, n × n Lanczos). Its 9 (dataset, seed) keys make 91
// stage-cache hits and 9 misses per sweep.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "exec/executor.h"
#include "harness.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kThreadBudget = 1;
constexpr double kScale = 0.5;

struct SweepJob {
  std::string dataset;
  std::uint64_t seed = 0;
  /// Row order of the simulated data (ShuffleRows; 0 = as simulated).
  std::uint64_t shuffle = 0;
  double beta = 1.0;
  double gamma = 2.0;
};

struct Stage {
  umvsc::data::MultiViewDataset dataset;
  umvsc::mvsc::MultiViewGraphs graphs;
};

struct JobOutput {
  bool ok = false;
  std::vector<std::size_t> labels;
  double objective = 0.0;
  std::size_t matvecs = 0;
  double ari = 0.0;
  std::size_t points = 0;
  double solve_ms = 0.0;
  double body_s = 0.0;
};

std::string StageKey(const SweepJob& job) {
  return job.dataset + "|" + std::to_string(job.seed) + "|" +
         std::to_string(job.shuffle);
}

std::shared_ptr<const Stage> BuildStage(const SweepJob& job) {
  auto stage = std::make_shared<Stage>();
  {
    Span span("data.simulate");
    auto dataset = umvsc::data::SimulateBenchmark(job.dataset, job.seed, kScale);
    if (!dataset.ok()) throw std::runtime_error(dataset.status().ToString());
    stage->dataset = *std::move(dataset);
    ShuffleRows(job.shuffle, &stage->dataset);
  }
  {
    Span span("graph.build_graphs");
    auto graphs = umvsc::mvsc::BuildGraphs(stage->dataset);
    if (!graphs.ok()) throw std::runtime_error(graphs.status().ToString());
    stage->graphs = *std::move(graphs);
  }
  return stage;
}

JobOutput Solve(const SweepJob& job, const Stage& stage) {
  umvsc::mvsc::UnifiedOptions options;
  options.num_clusters = stage.dataset.NumClusters();
  options.beta = job.beta;
  options.gamma = job.gamma;
  options.seed = job.seed;
  JobOutput out;
  const double t0 = Now();
  auto result = [&] {
    Span span("mvsc.solve");
    return umvsc::mvsc::UnifiedMVSC(options).Run(stage.graphs);
  }();
  out.solve_ms = (Now() - t0) * 1e3;
  if (!result.ok()) return out;
  out.ok = true;
  out.labels = std::move(result->labels);
  out.objective = result->objective_trace.empty()
                      ? 0.0
                      : result->objective_trace.back();
  out.matvecs = result->lanczos_matvecs;
  out.ari = Ari(out.labels, stage.dataset.labels);
  out.points = stage.dataset.NumSamples();
  return out;
}

}  // namespace

int RunJobSweep(const Args& args, Record* record) {
  using namespace umvsc;
  // β sweep at γ = 2 plus γ sweep at β = 1: 12 cells per (dataset, seed),
  // 3 datasets × 3 seeds, capped at 100 jobs.
  const std::vector<double> betas = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3};
  const std::vector<double> gammas = {1.2, 1.5, 3.0, 5.0, 8.0};
  const std::vector<std::string> datasets = {"MSRC-v1", "Handwritten",
                                             "3-Sources"};
  std::vector<SweepJob> jobs;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::uint64_t seed = 1 + 1000 * s;
    for (const std::string& name : datasets) {
      const std::uint64_t shuffle =
          args.seed == 0 ? 0 : 16 * args.seed + jobs.size() / 12;
      for (double beta : betas) {
        jobs.push_back({name, seed, shuffle, beta, 2.0});
      }
      for (double gamma : gammas) {
        jobs.push_back({name, seed, shuffle, 1.0, gamma});
      }
    }
  }
  jobs.resize(100);

  // Exact-path eigensolves, n × n for c pairs: the three simulated datasets
  // at scale 0.5 (MSRC-v1 7 clusters, Handwritten 10, 3-Sources 6).
  CommonSetup(args, kWorkers, {{105, 7}, {1000, 10}, {84, 6}}, record);
  record->SetupDone();
  if (args.setup_only) return 0;

  std::vector<JobOutput> outputs(jobs.size());
  std::vector<double>& sweep_s = record->Samples("sweep_s");
  std::vector<double>& solve_ms = record->Samples("solve_ms");
  std::vector<double>& job_pts_per_s = record->Samples("job_pts_per_s");
  const double timed_start = Now();
  double hits = 0.0, misses = 0.0;
  do {
    exec::JobExecutor::Options eopts;
    eopts.num_workers = kWorkers;
    exec::JobExecutor executor(eopts);
    std::vector<exec::JobHandle> handles;
    const double t0 = Now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      exec::JobSpec spec;
      spec.name = jobs[i].dataset;
      spec.thread_budget = kThreadBudget;
      spec.work = [&jobs, &outputs, i](exec::JobContext& context) -> Status {
        RequestScope request(static_cast<std::int64_t>(i));
        const double b0 = Now();
        Span span("exec.job");
        std::shared_ptr<const Stage> stage;
        {
          Span get("exec.stage_get");
          stage = context.stages().Get<Stage>(
              StageKey(jobs[i]), [&] { return BuildStage(jobs[i]); });
        }
        outputs[i] = Solve(jobs[i], *stage);
        outputs[i].body_s = Now() - b0;
        return outputs[i].ok ? Status::OK() : Status::Internal("solve failed");
      };
      handles.push_back(executor.Submit(std::move(spec)));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      record->Op(handles[i].Await().ok(), "job " + std::to_string(i));
    }
    sweep_s.push_back(Now() - t0);
    for (const JobOutput& out : outputs) {
      if (!out.ok) continue;
      solve_ms.push_back(out.solve_ms);
      job_pts_per_s.push_back(out.points / (out.solve_ms / 1e3));
    }
    hits = static_cast<double>(executor.stages().hits());
    misses = static_cast<double>(executor.stages().misses());
  } while (Now() - timed_start < args.seconds);

  // Outputs of the last sweep.
  double ari_sum = 0.0, ari_min = 1.0, matvecs = 0.0, busy = 0.0;
  for (const JobOutput& out : outputs) {
    ari_sum += out.ari;
    ari_min = std::min(ari_min, out.ari);
    matvecs += static_cast<double>(out.matvecs);
    busy += out.body_s;
  }
  record->Set("ari", ari_sum / jobs.size());
  record->Set("mvsc.ari_min", ari_min);
  record->Set("la.matvecs_per_job", matvecs / jobs.size());
  record->Set("exec.stage_hits", hits);
  record->Set("exec.stage_misses", misses);
  record->Set("exec.busy_share", busy / (kWorkers * sweep_s.back()));

  // One job per stage key re-run serially, outside the executor: labels
  // and final objective must match bitwise.
  for (std::size_t i = 0; i < jobs.size(); i += 12) {
    std::shared_ptr<const Stage> stage;
    try {
      stage = BuildStage(jobs[i]);
    } catch (const std::exception& e) {
      record->Op(false, std::string("serial stage: ") + e.what());
      continue;
    }
    const JobOutput serial = Solve(jobs[i], *stage);
    record->Op(serial.ok && serial.labels == outputs[i].labels &&
                   serial.objective == outputs[i].objective,
               "serial re-run of job " + std::to_string(i) +
                   " matches the executor bitwise");
  }
  return 0;
}

}  // namespace perfbench
