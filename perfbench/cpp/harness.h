// Shared harness of the perfbench workloads: the run record each workload
// fills (header, scalar values, raw latency samples, checks), the span
// recorder of the traced build, and the set-up steps every workload shares.
//
// The record is printed as one JSON line on stdout; perfbench/report.py turns
// it into the end-to-end or per-layer metrics. Spans exist only in the traced
// binary (PERFBENCH_TRACE=1): in the untraced one a Span is an empty object,
// so end-to-end timings never pay for tracing.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"

#ifndef PERFBENCH_TRACE
#define PERFBENCH_TRACE 0
#endif

namespace perfbench {

inline constexpr bool kTraced = PERFBENCH_TRACE != 0;
/// Pool size of every workload: half of the 4-core reference host, so the
/// library never competes with the load generator or the host for a core.
inline constexpr std::size_t kPoolThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Stop right before the first timed call (set-up time samples).
  bool setup_only = false;
  /// Directory for files a workload must write (serve_loop's model file).
  std::string scratch_dir = ".";
};

/// Seconds since process start (steady clock, anchored at static init).
double Now();

/// Everything one workload process reports. Values are raw measurements;
/// report.py derives the metrics.
class Record {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  std::vector<double>& Samples(const std::string& name) {
    return samples_[name];
  }
  /// One library operation or output check; a failed one makes the run
  /// incorrect. `what` names the failure on stderr.
  void Op(bool ok, const std::string& what);
  void Header(const std::string& key, const std::string& value) {
    header_[key] = value;
  }
  /// Marks the end of set-up: the first timed call starts now.
  void SetupDone() { Set("setup_s", Now()); }

  /// The record as one JSON object; spans are arrays of [id, parent, name,
  /// start, end, request, thread] (parent 0 = none; ids start at 1).
  std::string ToJson() const;

 private:
  std::map<std::string, std::string> header_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// A timed region around a call into one layer. Spans nest per thread (the
/// innermost open span of the thread is the parent) and carry the request
/// id set by RequestScope. No-op in the untraced binary.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t index_ = 0;
};

/// Tags every span the calling thread opens with `request` (an Assign call,
/// an Ingest batch, a job) until destroyed.
class RequestScope {
 public:
  explicit RequestScope(std::int64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::int64_t previous_;
};

/// Turns counting of allocated bytes on or off (traced binary only).
void CountAllocations(bool on);
/// Bytes operator new handed out while counting was on (traced binary only;
/// 0 otherwise).
std::uint64_t AllocatedBytes();

/// The set-up every workload starts with: pins the pool, records the run
/// header, and finishes the library's lazy set-up — `la.lazy_init_s` is the
/// first tiny auto-dispatched eigensolve minus an identical second one, and
/// `la.block_mode_shapes` counts the (n, k) eigensolve shapes of this
/// workload that the auto policy sends to the block solver.
void CommonSetup(const Args& args, std::size_t workers,
                 const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
                 Record* record);

/// ARI of `predicted` against `truth` (0 when undefined).
double Ari(const std::vector<std::size_t>& predicted,
           const std::vector<std::size_t>& truth);

/// Shuffles the rows of every view (and the labels) of `dataset` with a
/// Fisher–Yates pass seeded by `seed`; seed 0 leaves the order as generated.
void ShuffleRows(std::uint64_t seed, umvsc::data::MultiViewDataset* dataset);

/// Peak resident set of this process, in MB.
double PeakRssMb();

int RunServeLoop(const Args& args, Record* record);
int RunStreamReplay(const Args& args, Record* record);
int RunJobSweep(const Args& args, Record* record);
int RunAnchorFit(const Args& args, Record* record);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
