#ifndef UMVSC_EXEC_EXECUTOR_H_
#define UMVSC_EXEC_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/stage_cache.h"

namespace umvsc::exec {

class JobExecutor;

/// Per-job view of the executor's substrate, handed to the job's work
/// function: the executor-wide stage cache and the job's thread budget.
/// Nothing here may escape the work function.
class JobContext {
 public:
  /// Compute-once cache of shared pipeline stages (executor-wide).
  StageCache& stages() { return *stages_; }
  /// The thread budget this job declared (what its nested ParallelFor
  /// calls will be partitioned over).
  std::size_t thread_budget() const;

 private:
  friend class JobExecutor;
  JobContext() = default;
  StageCache* stages_ = nullptr;
  std::size_t thread_budget_ = 1;
};

/// One unit of submitted work.
struct JobSpec {
  /// The job body. Runs on an executor worker with a ScopedParallelContext
  /// installing `thread_budget`, so every nested ParallelFor inside (GEMM
  /// row blocks, per-view fan-outs) partitions over the budget instead of
  /// the process default. Exceptions are caught and surfaced as the job's
  /// status — they never poison sibling jobs or the worker.
  std::function<Status(JobContext&)> work;
  /// Threads this job's nested parallel regions may use (level 2 of the
  /// two-level schedule; the worker itself is level 1). 0 = process
  /// default. The repo's determinism contract makes results identical at
  /// every value; the budget only bounds this job's CPU claim.
  std::size_t thread_budget = 1;
  /// Display name; an escaped exception's Internal status quotes it.
  std::string name;
};

/// Shared-state handle to a submitted job. Copyable; all copies observe
/// the same job.
class JobHandle {
 public:
  JobHandle() = default;

  /// Blocks until the job completes or its executor drops it unstarted.
  void Wait() const;
  /// True once the job finished, failed, or was dropped unstarted.
  bool Done() const;
  /// The job's outcome: the work function's return, Internal for an
  /// escaped exception, or FailedPrecondition when the executor was
  /// destroyed before the job started. Blocks via Wait().
  Status Await() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class JobExecutor;
  struct State;
  explicit JobHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Deterministic multi-tenant job executor: packs many independent solves
/// onto one substrate — the global thread pool for nested parallelism
/// (level 2) plus an executor-wide stage cache.
///
/// Determinism contract (pinned by exec_executor_test and the
/// bench/multi_job parity gate): per-job outputs are bitwise identical to
/// running the same work functions in a plain serial loop, at every
/// worker count and under every submission order. The pieces: job bodies
/// depend only on their inputs; nested kernels are thread-count-invariant
/// (docs/THREADING.md); cache factories are pure (StageCache). Scheduling
/// decides only WHEN work happens, never WHAT it computes.
class JobExecutor {
 public:
  struct Options {
    /// Concurrent jobs (level 1). Distinct from any job's thread budget.
    std::size_t num_workers = 1;
  };

  JobExecutor();  // default Options
  explicit JobExecutor(Options options);
  /// Resolves every pending job as not started (so no waiter hangs), lets
  /// running ones finish, and joins the workers.
  ~JobExecutor();

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  /// Enqueues a job; jobs start in submission order (FIFO).
  JobHandle Submit(JobSpec spec);

  /// Executor-wide compute-once stage cache.
  StageCache& stages() { return stages_; }

  const Options& options() const { return options_; }

 private:
  void WorkerLoop();

  Options options_;
  StageCache stages_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue or stop changed
  std::deque<std::shared_ptr<JobHandle::State>> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace umvsc::exec

#endif  // UMVSC_EXEC_EXECUTOR_H_
