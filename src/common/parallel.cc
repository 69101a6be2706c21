#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace umvsc {

namespace {

// Upper bound on the pool size: generous enough for any machine this
// library targets while keeping a typo in UMVSC_NUM_THREADS from spawning
// millions of threads.
constexpr std::size_t kMaxThreads = 256;

std::size_t ClampThreads(std::size_t n) {
  if (n < 1) return 1;
  return std::min(n, kMaxThreads);
}

// Nonzero while a SetDefaultNumThreads override is active.
std::atomic<std::size_t> g_thread_override{0};

// Marks threads currently executing chunks of a parallel region.
thread_local bool tl_in_parallel = false;

// The calling thread's installed ParallelContext (null = process defaults).
thread_local const ParallelContext* tl_parallel_context = nullptr;

// A single shared pool of blocked workers. Jobs are broadcast: every worker
// wakes on a generation bump and, if the job is still posted, joins it and
// claims spans from an atomic cursor until none remain; the caller withdraws
// the job once every span is claimed and waits only for the workers that
// joined, so a slow waker never delays a finished region. Workers are created
// lazily and only ever added, never destroyed before process exit.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();  // leaked: workers may
    return *pool;                                // outlive static dtors
  }

  // Executes fn(span) for span in [0, num_spans) across the caller plus up
  // to num_spans - 1 workers. Rethrows the first exception thrown by fn.
  void Run(std::size_t num_spans,
           const std::function<void(std::size_t)>& fn) {
    // One job at a time: a second user thread entering a parallel region
    // queues here and reuses the same workers once the first job drains.
    std::lock_guard<std::mutex> run_lock(run_mu_);
    EnsureWorkers(num_spans - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_fn_ = &fn;
      job_spans_ = num_spans;
      next_span_.store(0, std::memory_order_relaxed);
      active_workers_ = 0;
      ++generation_;
    }
    work_cv_.notify_all();
    ExecuteSpans(fn, num_spans);
    // Every span is claimed. Withdraw the job so a worker that wakes from
    // now on finds nothing and stays out, then wait only for the workers
    // that joined (they may still be running their last span).
    std::unique_lock<std::mutex> lock(mu_);
    job_fn_ = nullptr;
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    if (first_error_) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

 private:
  ThreadPool() = default;

  void EnsureWorkers(std::size_t wanted) {
    wanted = std::min(wanted, kMaxThreads - 1);
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < wanted) {
      const std::uint64_t birth_generation = generation_;
      workers_.emplace_back(
          [this, birth_generation] { WorkerLoop(birth_generation); });
    }
  }

  void WorkerLoop(std::uint64_t seen_generation) {
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t spans = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [&] { return generation_ != seen_generation; });
        seen_generation = generation_;
        fn = job_fn_;
        spans = job_spans_;
        if (fn == nullptr) continue;  // woke after the job was withdrawn
        ++active_workers_;
      }
      ExecuteSpans(*fn, spans);
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }

  void ExecuteSpans(const std::function<void(std::size_t)>& fn,
                    std::size_t num_spans) {
    tl_in_parallel = true;
    for (;;) {
      const std::size_t span =
          next_span_.fetch_add(1, std::memory_order_relaxed);
      if (span >= num_spans) break;
      try {
        fn(span);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    tl_in_parallel = false;
  }

  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_spans_ = 0;
  std::atomic<std::size_t> next_span_{0};
  std::size_t active_workers_ = 0;
  std::exception_ptr first_error_;
};

std::size_t EnvNumThreads() {
  static const std::size_t value = [] {
    const char* env = std::getenv("UMVSC_NUM_THREADS");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        return ClampThreads(static_cast<std::size_t>(parsed));
      }
    }
    return HardwareThreads();
  }();
  return value;
}

}  // namespace

std::size_t HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : ClampThreads(hc);
}

std::size_t DefaultNumThreads() {
  const std::size_t override_value =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_value != 0) return override_value;
  return EnvNumThreads();
}

void SetDefaultNumThreads(std::size_t num_threads) {
  g_thread_override.store(num_threads == 0 ? 0 : ClampThreads(num_threads),
                          std::memory_order_relaxed);
}

ScopedNumThreads::ScopedNumThreads(std::size_t num_threads)
    : previous_(g_thread_override.load(std::memory_order_relaxed)) {
  SetDefaultNumThreads(num_threads);
}

ScopedNumThreads::~ScopedNumThreads() {
  g_thread_override.store(previous_, std::memory_order_relaxed);
}

const ParallelContext* CurrentParallelContext() { return tl_parallel_context; }

ScopedParallelContext::ScopedParallelContext(const ParallelContext& context)
    : value_(context), previous_(tl_parallel_context) {
  tl_parallel_context = &value_;
}

ScopedParallelContext::~ScopedParallelContext() {
  tl_parallel_context = previous_;
}

bool InParallelRegion() { return tl_in_parallel; }

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn,
                 std::size_t num_threads) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t range = end - begin;
  const std::size_t num_chunks = (range + grain - 1) / grain;
  std::size_t threads;
  if (num_threads != 0) {
    threads = ClampThreads(num_threads);
  } else if (tl_parallel_context != nullptr &&
             tl_parallel_context->num_threads != 0) {
    threads = ClampThreads(tl_parallel_context->num_threads);
  } else {
    threads = DefaultNumThreads();
  }
  threads = std::min(threads, num_chunks);
  if (threads <= 1 || tl_in_parallel) {
    fn(begin, end);
    return;
  }
  // Static contiguous partition: thread t gets chunks
  // [t·⌈chunks/threads⌉, …) — whole chunks only, so every span boundary is
  // begin + multiple·grain and kernels can rely on grain-aligned blocks.
  const std::size_t chunks_per_span = (num_chunks + threads - 1) / threads;
  const std::size_t num_spans = (num_chunks + chunks_per_span - 1) / chunks_per_span;
  ThreadPool::Global().Run(num_spans, [&](std::size_t span) {
    const std::size_t chunk_lo = span * chunks_per_span;
    const std::size_t chunk_hi = std::min(chunk_lo + chunks_per_span, num_chunks);
    const std::size_t lo = begin + chunk_lo * grain;
    const std::size_t hi = std::min(begin + chunk_hi * grain, end);
    if (lo < hi) fn(lo, hi);
  });
}

}  // namespace umvsc
