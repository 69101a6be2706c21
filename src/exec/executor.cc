#include "exec/executor.h"

#include <exception>
#include <utility>

#include "common/parallel.h"

namespace umvsc::exec {

struct JobHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status = Status::OK();
  std::function<Status(JobContext&)> work;
  std::size_t thread_budget = 1;
  std::string name;

  /// Records the outcome and wakes every waiter; takes `mu` itself.
  void Resolve(Status outcome) {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    status = std::move(outcome);
    cv.notify_all();
  }
};

std::size_t JobContext::thread_budget() const { return thread_budget_; }

void JobHandle::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
}

bool JobHandle::Done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Status JobHandle::Await() const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("empty job handle");
  }
  Wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

JobExecutor::JobExecutor() : JobExecutor(Options()) {}

JobExecutor::JobExecutor(Options options) : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  workers_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobExecutor::~JobExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Pending jobs are resolved here so their waiters unblock; running
    // jobs finish and are joined below.
    for (const std::shared_ptr<JobHandle::State>& state : queue_) {
      state->Resolve(
          Status::FailedPrecondition("executor destroyed before start"));
    }
    queue_.clear();
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

JobHandle JobExecutor::Submit(JobSpec spec) {
  auto state = std::make_shared<JobHandle::State>();
  state->work = std::move(spec.work);
  state->thread_budget = spec.thread_budget;
  state->name = std::move(spec.name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      state->Resolve(Status::FailedPrecondition("executor is shutting down"));
      return JobHandle(std::move(state));
    }
    queue_.push_back(state);
  }
  work_cv_.notify_one();
  return JobHandle(std::move(state));
}

void JobExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<JobHandle::State> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to run
      state = std::move(queue_.front());
      queue_.pop_front();
    }

    JobContext context;
    context.stages_ = &stages_;
    context.thread_budget_ = state->thread_budget;

    Status outcome = Status::OK();
    try {
      // Two-level scheduling: every nested ParallelFor inside the body
      // partitions over this job's budget, not the process default — and
      // the budget dies with this scope, so it cannot leak into the next
      // job or another tenant (the ScopedNumThreads global-state hazard).
      const ScopedParallelContext budget(
          ParallelContext{state->thread_budget});
      outcome = state->work(context);
    } catch (const std::exception& e) {
      outcome = Status::Internal("job '" + state->name + "' threw: " +
                                 e.what());
    } catch (...) {
      outcome = Status::Internal("job '" + state->name +
                                 "' threw a non-exception object");
    }
    state->Resolve(std::move(outcome));
  }
}

}  // namespace umvsc::exec
