#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "la/sparse.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

struct SpanRecord {
  std::uint32_t parent = 0;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t request = -1;
  std::uint32_t thread = 0;
};

std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mu
std::uint32_t g_threads = 0;      // guarded by g_spans_mu

thread_local std::vector<std::uint32_t> t_open;  // ids of open spans
thread_local std::int64_t t_request = -1;
thread_local std::uint32_t t_thread = 0;  // 0 = not yet numbered

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* SimdBackend() {
#if defined(UMVSC_SIMD_AVX2)
  return "avx2";
#elif defined(UMVSC_SIMD_SSE2)
  return "sse2";
#elif defined(UMVSC_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// A planted two-block normalized Laplacian: the smallest input on which the
// auto-dispatched eigensolver consults its policy (k between 2 and 15).
umvsc::la::CsrMatrix TinyLaplacian() {
  constexpr std::size_t n = 64;
  umvsc::la::Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t degree = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (i < n / 2) == (j < n / 2) && (i + j) % 3 != 0) {
        l(i, j) = -1.0;
        ++degree;
      }
    }
    l(i, i) = static_cast<double>(degree);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && l(i, j) != 0.0) {
        l(i, j) /= std::sqrt(l(i, i) * l(j, j));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) l(i, i) = 1.0;
  return umvsc::la::CsrMatrix::FromDense(l);
}

std::string SpansJson() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::string out = "[";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    out += (i ? ", [" : "[") + std::to_string(i + 1) + ", " +
           std::to_string(s.parent) + ", " + JsonString(s.name) + ", " +
           JsonNumber(s.start) + ", " + JsonNumber(s.end) + ", " +
           std::to_string(s.request) + ", " + std::to_string(s.thread) + "]";
  }
  return out + "]";
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

void Record::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

std::string Record::ToJson() const {
  std::string out = "{\"header\": {";
  bool first = true;
  for (const auto& [key, value] : header_) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  out += "}, \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"values\": {";
  first = true;
  for (const auto& [key, value] : values_) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [key, values] : samples_) {
    out += (first ? "" : ", ") + JsonString(key) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(values[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"spans\": " + SpansJson() + "}";
  return out;
}

Span::Span(const char* name) {
  if constexpr (!kTraced) return;
  const double start = Now();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  if (t_thread == 0) t_thread = ++g_threads;
  SpanRecord record;
  record.parent = t_open.empty() ? 0 : t_open.back();
  record.name = name;
  record.start = start;
  record.request = t_request;
  record.thread = t_thread;
  g_spans.push_back(record);
  index_ = static_cast<std::uint32_t>(g_spans.size());
  t_open.push_back(index_);
}

Span::~Span() {
  if constexpr (!kTraced) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans[index_ - 1].end = end;
  t_open.pop_back();
}

RequestScope::RequestScope(std::int64_t request) : previous_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = previous_; }

void CommonSetup(const Args& args, std::size_t workers,
                 const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
                 Record* record) {
  umvsc::SetDefaultNumThreads(kPoolThreads);
  record->Header("workload", args.workload);
  record->Header("seed", std::to_string(args.seed));
  record->Header("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  record->Header("pool_threads", std::to_string(umvsc::DefaultNumThreads()));
  record->Header("workers", std::to_string(workers));
  record->Header("simd", SimdBackend());
  record->Header("build_type", PERFBENCH_BUILD_TYPE);
  record->Header("traced", kTraced ? "1" : "0");

  // Lazy set-up: the first auto-dispatched eigensolve pays for the pool
  // start and the eigensolve-policy calibration; the second is the same
  // solve warm.
  const umvsc::la::CsrMatrix tiny = TinyLaplacian();
  double first = 0.0;
  for (int call = 0; call < 2; ++call) {
    const double t0 = Now();
    auto solved = umvsc::la::LanczosSmallestAuto(tiny, 4, 2.0);
    const double seconds = Now() - t0;
    record->Op(solved.ok(), "warm-up eigensolve");
    if (call == 0) {
      first = seconds;
    } else {
      record->Set("la.lazy_init_s", first - seconds);
    }
  }
  std::size_t block = 0;
  for (const auto& [n, k] : shapes) {
    if (umvsc::la::ResolveEigensolveMode(umvsc::la::EigensolveMode::kAuto, n,
                                         k) ==
        umvsc::la::EigensolveMode::kForceBlock) {
      ++block;
    }
  }
  record->Set("la.block_mode_shapes", static_cast<double>(block));
}

double Ari(const std::vector<std::size_t>& predicted,
           const std::vector<std::size_t>& truth) {
  auto ari = umvsc::eval::AdjustedRandIndex(predicted, truth);
  return ari.ok() ? *ari : 0.0;
}

void ShuffleRows(std::uint64_t seed, umvsc::data::MultiViewDataset* dataset) {
  if (seed == 0) return;
  const std::size_t n = dataset->NumSamples();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  umvsc::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  for (umvsc::la::Matrix& view : dataset->views) {
    umvsc::la::Matrix shuffled(n, view.cols());
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(view.RowPtr(order[i]), view.RowPtr(order[i]) + view.cols(),
                shuffled.RowPtr(i));
    }
    view = std::move(shuffled);
  }
  if (dataset->labels.size() == n) {
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = dataset->labels[order[i]];
    dataset->labels = std::move(labels);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
