#include "exec/executor.h"

#include <exception>
#include <utility>

#include "common/parallel.h"

namespace umvsc::exec {

namespace {
// Worker identity for OnWorkerThread: which executor (if any) owns the
// current thread. Plain thread_local pointer — workers set it once at
// startup and never race.
thread_local const JobExecutor* tl_owning_executor = nullptr;
}  // namespace

struct JobHandle::State {
  enum class Phase { kPending, kRunning, kDone, kCancelled };

  std::mutex mu;
  std::condition_variable cv;
  Phase phase = Phase::kPending;
  Status status = Status::OK();
  std::function<Status(JobContext&)> work;
  std::size_t thread_budget = 1;
  bool background = false;
  std::string name;
  std::atomic<bool> cancel_requested{false};

  bool DoneLocked() const {
    return phase == Phase::kDone || phase == Phase::kCancelled;
  }
};

bool JobContext::cancel_requested() const {
  return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
}

std::size_t JobContext::thread_budget() const { return thread_budget_; }

void JobHandle::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->DoneLocked(); });
}

bool JobHandle::Done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->DoneLocked();
}

Status JobHandle::Await() const {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("empty job handle");
  }
  Wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

bool JobHandle::Cancel() {
  if (state_ == nullptr) return false;
  state_->cancel_requested.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->phase == State::Phase::kPending) {
    // The worker that eventually pops this state skips it (phase check);
    // resolve the handle right here so waiters don't depend on a pop.
    state_->phase = State::Phase::kCancelled;
    state_->status = Status::FailedPrecondition("job cancelled before start");
    state_->cv.notify_all();
    return true;
  }
  return false;
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
    // Pending jobs are resolved as cancelled so their waiters unblock;
    // running jobs get the cooperative flag and are joined below.
    for (auto* queue : {&foreground_, &background_}) {
      for (const std::shared_ptr<JobHandle::State>& state : *queue) {
        std::lock_guard<std::mutex> job_lock(state->mu);
        if (state->phase == JobHandle::State::Phase::kPending) {
          state->phase = JobHandle::State::Phase::kCancelled;
          state->status =
              Status::FailedPrecondition("executor destroyed before start");
          state->cv.notify_all();
          --in_flight_;
        }
      }
      queue->clear();
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

JobHandle JobExecutor::Submit(JobSpec spec) {
  auto state = std::make_shared<JobHandle::State>();
  state->work = std::move(spec.work);
  state->thread_budget = spec.thread_budget;
  state->background = spec.background;
  state->name = std::move(spec.name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      std::lock_guard<std::mutex> job_lock(state->mu);
      state->phase = JobHandle::State::Phase::kCancelled;
      state->status = Status::FailedPrecondition("executor is shutting down");
      return JobHandle(std::move(state));
    }
    (spec.background ? background_ : foreground_).push_back(state);
    ++in_flight_;
  }
  work_cv_.notify_one();
  return JobHandle(std::move(state));
}

std::shared_ptr<JobHandle::State> JobExecutor::NextJobLocked() {
  while (!foreground_.empty() || !background_.empty()) {
    std::deque<std::shared_ptr<JobHandle::State>>& queue =
        foreground_.empty() ? background_ : foreground_;
    std::shared_ptr<JobHandle::State> state = std::move(queue.front());
    queue.pop_front();
    std::lock_guard<std::mutex> job_lock(state->mu);
    if (state->phase == JobHandle::State::Phase::kPending) {
      state->phase = JobHandle::State::Phase::kRunning;
      return state;
    }
    // Cancelled while queued: the canceller already resolved the handle.
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
  return nullptr;
}

void JobExecutor::WorkerLoop() {
  tl_owning_executor = this;
  for (;;) {
    std::shared_ptr<JobHandle::State> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || !foreground_.empty() || !background_.empty();
      });
      state = NextJobLocked();
      if (state == nullptr) {
        if (stopping_) return;
        continue;
      }
    }

    JobContext context;
    context.stages_ = &stages_;
    context.cancel_ = &state->cancel_requested;
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
      outcome = Status::Internal(std::string("job threw: ") + e.what());
    } catch (...) {
      outcome = Status::Internal("job threw a non-exception object");
    }

    {
      std::lock_guard<std::mutex> job_lock(state->mu);
      state->phase = JobHandle::State::Phase::kDone;
      state->status = std::move(outcome);
      state->cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void JobExecutor::WaitAll() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool JobExecutor::OnWorkerThread() const { return tl_owning_executor == this; }

}  // namespace umvsc::exec
