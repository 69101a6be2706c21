#ifndef UMVSC_COMMON_PARALLEL_H_
#define UMVSC_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace umvsc {

/// Deterministic shared-memory parallelism for the hot kernels.
///
/// Design contract (see docs/THREADING.md for the full statement):
///  * Work is split by STATIC CONTIGUOUS PARTITIONING only: a range
///    [begin, end) is cut into fixed-size chunks of `grain` iterations, and
///    each participating thread executes a contiguous run of whole chunks.
///    No work stealing, no dynamic load balancing.
///  * The chunk grid depends only on (end − begin, grain) — NEVER on the
///    thread count — so every floating-point reduction is combined in an
///    order that is bitwise identical whether the code runs on 1, 2, or 64
///    threads.
///  * The pool is lazily created on first use and sized by the
///    UMVSC_NUM_THREADS environment variable (default: hardware
///    concurrency); SetDefaultNumThreads overrides it at runtime and every
///    entry point also accepts a per-call override.
///  * Nested parallel regions execute serially on the calling thread, so
///    composed kernels (e.g. per-view fan-out around row-parallel GEMMs)
///    never deadlock and never oversubscribe.

/// Hardware concurrency as reported by the OS, floored at 1.
std::size_t HardwareThreads();

/// The number of threads parallel regions use when no per-call override is
/// given. Resolution order: SetDefaultNumThreads value (if nonzero) →
/// UMVSC_NUM_THREADS environment variable (read once, on first use) →
/// HardwareThreads(). Always ≥ 1.
std::size_t DefaultNumThreads();

/// Overrides DefaultNumThreads() for the whole process; pass 0 to reset to
/// the environment/hardware default. Values are clamped to [1, 256].
/// Thread-safe, but do not call concurrently with running parallel regions
/// if you need the new value to apply to them.
void SetDefaultNumThreads(std::size_t num_threads);

/// Restores the previous default thread count on destruction. Handy for
/// tests and benchmarks that sweep thread counts.
///
/// NOTE: this mutates PROCESS-GLOBAL state — every thread without a
/// ParallelContext sees the new default. Code that runs concurrent
/// independent solves (the exec/ job executor) must NOT use it to give one
/// solve a thread budget: the budget would leak into every other tenant's
/// solve. Install a per-thread ScopedParallelContext instead.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::size_t num_threads);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::size_t previous_;
};

/// Per-thread parallelism budget — the non-leaking alternative to
/// SetDefaultNumThreads for multi-tenant execution. A thread that installs a
/// ParallelContext (via ScopedParallelContext) caps every parallel region it
/// enters at `num_threads` participating threads WITHOUT touching process
/// state: two jobs running on two executor workers each see only their own
/// budget. Resolution order inside ParallelFor/ParallelReduce:
///   explicit per-call num_threads → current thread's ParallelContext →
///   SetDefaultNumThreads / UMVSC_NUM_THREADS / hardware default.
struct ParallelContext {
  /// Maximum threads parallel regions on this thread may use (the calling
  /// thread plus pool workers). 0 falls through to the process default;
  /// 1 makes every region run serially on the calling thread.
  std::size_t num_threads = 1;
};

/// The context governing parallel regions on the calling thread, or nullptr
/// when none is installed (process defaults apply).
const ParallelContext* CurrentParallelContext();

/// RAII installer of a per-thread ParallelContext. The two-level scheduling
/// primitive of the job executor: the executor installs a job's thread
/// budget on the worker running it, so a nested ParallelFor inside the job
/// partitions only that budget instead of grabbing the whole pool (or
/// degrading to serial). Contexts nest per thread; each scope restores its
/// predecessor.
class ScopedParallelContext {
 public:
  explicit ScopedParallelContext(const ParallelContext& context);
  ~ScopedParallelContext();
  ScopedParallelContext(const ScopedParallelContext&) = delete;
  ScopedParallelContext& operator=(const ScopedParallelContext&) = delete;

 private:
  ParallelContext value_;
  const ParallelContext* previous_;
};

/// Runs `fn(chunk_begin, chunk_end)` over a static partition of
/// [begin, end). The range is cut into ⌈(end−begin)/grain⌉ chunks of `grain`
/// iterations (the last chunk may be short) and each participating thread
/// receives one contiguous run of chunks, so chunk boundaries are always
/// multiples of `grain` from `begin`. `fn` must write only to locations
/// derived from its own index range; under that condition the result is
/// bitwise identical for every thread count.
///
/// `grain` = 0 is treated as 1. If the range is empty, `fn` is never
/// called. If the effective thread count is 1, there is a single chunk, or
/// the call is nested inside another parallel region, `fn(begin, end)` runs
/// on the calling thread with no synchronization.
///
/// `num_threads` = 0 uses the calling thread's ParallelContext budget when
/// one is installed, else DefaultNumThreads(). Exceptions thrown by `fn`
/// are caught, the first one is rethrown on the calling thread after all
/// chunks finish; the library itself never throws from `fn` (it uses
/// Status/UMVSC_CHECK), so this matters only for user callbacks.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn,
                 std::size_t num_threads = 0);

/// Deterministic parallel reduction. The range is cut into the same
/// grain-defined chunk grid as ParallelFor; `map_fn(chunk_begin, chunk_end)`
/// produces one partial value per chunk (computed in ascending iteration
/// order within the chunk), and the partials are then combined on the
/// calling thread by a FIXED binary tree over the chunk indices
/// (stride-doubling pairwise combination). Because both the chunk grid and
/// the tree shape depend only on (end − begin, grain), the result — down to
/// floating-point rounding — is identical for every thread count, including
/// a plain serial run of the same call.
///
/// Note the determinism contract is "identical across thread counts for the
/// same grain", not "identical to a straight-line serial loop": the tree
/// association differs from left-to-right accumulation, so switching a
/// kernel from a raw loop to ParallelReduce may change its last few bits
/// once — after which the value is stable everywhere.
///
/// Returns `identity` for an empty range. `combine` must be associative up
/// to the reordering you are willing to accept; it is applied only on the
/// calling thread.
template <typename T>
T ParallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
                 T identity,
                 const std::function<T(std::size_t, std::size_t)>& map_fn,
                 const std::function<T(const T&, const T&)>& combine,
                 std::size_t num_threads = 0) {
  if (end <= begin) return identity;
  if (grain == 0) grain = 1;
  const std::size_t range = end - begin;
  const std::size_t num_chunks = (range + grain - 1) / grain;
  std::vector<T> partials(num_chunks, identity);
  ParallelFor(
      begin, end, grain,
      [&](std::size_t lo, std::size_t hi) {
        // The span is a whole number of chunks; evaluate each one
        // independently so the partials are chunk-exact regardless of how
        // many chunks this thread received.
        for (std::size_t c0 = lo; c0 < hi; c0 += grain) {
          const std::size_t c1 = std::min(c0 + grain, hi);
          partials[(c0 - begin) / grain] = map_fn(c0, c1);
        }
      },
      num_threads);
  // Fixed stride-doubling tree: pairs (0,1), (2,3), … then (0,2), (4,6), …
  // The shape depends only on num_chunks.
  for (std::size_t stride = 1; stride < num_chunks; stride *= 2) {
    for (std::size_t i = 0; i + stride < num_chunks; i += 2 * stride) {
      partials[i] = combine(partials[i], partials[i + stride]);
    }
  }
  return partials[0];
}

/// True while the calling thread is executing inside a parallel region
/// (worker or participating caller). Nested ParallelFor/ParallelReduce
/// calls detect this and degrade to serial execution.
bool InParallelRegion();

}  // namespace umvsc

#endif  // UMVSC_COMMON_PARALLEL_H_
