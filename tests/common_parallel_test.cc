#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace umvsc {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::size_t n = 1013;
    std::vector<int> counts(n, 0);
    ParallelFor(
        0, n, 7,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) counts[i]++;
        },
        threads);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i], 1) << "index " << i << " at " << threads
                              << " threads";
    }
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  bool called = false;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; }, 8);
  ParallelFor(7, 3, 1, [&](std::size_t, std::size_t) { called = true; }, 8);
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleElementRangeRunsOnce) {
  std::atomic<int> calls{0};
  ParallelFor(
      41, 42, 16,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo, 41u);
        EXPECT_EQ(hi, 42u);
        calls++;
      },
      8);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, GrainZeroIsTreatedAsOne) {
  const std::size_t n = 64;
  std::vector<int> counts(n, 0);
  ParallelFor(
      0, n, 0,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) counts[i]++;
      },
      4);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(counts[i], 1);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsSerially) {
  std::atomic<int> calls{0};
  ParallelFor(
      0, 10, 100,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 10u);
        EXPECT_FALSE(InParallelRegion());  // serial fast path
        calls++;
      },
      8);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, SpanBoundariesAreGrainAligned) {
  const std::size_t begin = 3, end = 3 + 257, grain = 16;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  ParallelFor(
      begin, end, grain,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({lo, hi});
      },
      8);
  std::size_t covered = 0;
  for (const auto& [lo, hi] : spans) {
    EXPECT_EQ((lo - begin) % grain, 0u) << "span start must be grain-aligned";
    if (hi != end) EXPECT_EQ((hi - begin) % grain, 0u);
    EXPECT_LT(lo, hi);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, end - begin);
}

TEST(ParallelForTest, PoolIsReusedAcrossManyRegions) {
  // Exercises the generation/wakeup logic: many back-to-back jobs must each
  // run to completion with no lost or duplicated work.
  for (int round = 0; round < 200; ++round) {
    std::atomic<long> sum{0};
    ParallelFor(
        0, 100, 1,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
          }
        },
        4);
    ASSERT_EQ(sum.load(), 4950);
  }
}

TEST(ParallelForTest, ShortRegionsBackToBackVisitEveryIndexOnce) {
  // Thousands of short regions at 8 threads, alternating 2 and 8 spans:
  // most workers wake after a 2-span region's spans are all claimed and
  // must stay out of it, and out of the next region's cursor. Plain ints,
  // so a visit outside the call that owns it is a data race under TSan.
  std::vector<int> visits(8, 0);
  for (int call = 0; call < 4000; ++call) {
    const std::size_t n = call % 2 == 0 ? 2 : 8;
    std::fill(visits.begin(), visits.end(), 0);
    ParallelFor(
        0, n, 1,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) visits[i]++;
        },
        8);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "index " << i << " in call " << call;
    }
  }
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      ParallelFor(
          0, 100, 1,
          [&](std::size_t lo, std::size_t) {
            if (lo == 0) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> ok{0};
  ParallelFor(0, 8, 1, [&](std::size_t, std::size_t) { ok++; }, 4);
  EXPECT_GT(ok.load(), 0);
}

TEST(ParallelForTest, NestedRegionsRunSeriallyWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  ParallelFor(
      0, 8, 1,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_TRUE(InParallelRegion());
        for (std::size_t i = lo; i < hi; ++i) {
          ParallelFor(
              0, 10, 1,
              [&](std::size_t ilo, std::size_t ihi) {
                inner_total.fetch_add(static_cast<int>(ihi - ilo));
              },
              8);
        }
      },
      4);
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelReduceTest, MatchesSerialSumOfIntegers) {
  const std::size_t n = 1000;
  const long expected = static_cast<long>(n) * (n - 1) / 2;
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const long got = ParallelReduce<long>(
        0, n, 13, 0L,
        [](std::size_t lo, std::size_t hi) {
          long s = 0;
          for (std::size_t i = lo; i < hi; ++i) s += static_cast<long>(i);
          return s;
        },
        [](const long& a, const long& b) { return a + b; }, threads);
    EXPECT_EQ(got, expected);
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  const double got = ParallelReduce<double>(
      10, 10, 4, -3.5,
      [](std::size_t, std::size_t) { return 1.0; },
      [](const double& a, const double& b) { return a + b; }, 8);
  EXPECT_EQ(got, -3.5);
}

TEST(ParallelReduceTest, FloatingPointSumIsBitwiseStableAcrossThreadCounts) {
  // Values chosen so that re-associating the sum changes the low bits: if
  // the reduction tree depended on the thread count, these comparisons
  // would fail.
  const std::size_t n = 2048;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = (i % 3 == 0 ? 1.0 : -1.0) / static_cast<double>(i + 1) * 1e8;
  }
  auto sum_at = [&](std::size_t threads) {
    return ParallelReduce<double>(
        0, n, 32, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](const double& a, const double& b) { return a + b; }, threads);
  };
  const double at1 = sum_at(1);
  EXPECT_EQ(at1, sum_at(2));
  EXPECT_EQ(at1, sum_at(5));
  EXPECT_EQ(at1, sum_at(8));
}

TEST(ThreadCountTest, DefaultsAreSaneAndOverridable) {
  EXPECT_GE(HardwareThreads(), 1u);
  EXPECT_GE(DefaultNumThreads(), 1u);
  const std::size_t before = DefaultNumThreads();
  {
    ScopedNumThreads scope(3);
    EXPECT_EQ(DefaultNumThreads(), 3u);
    {
      ScopedNumThreads inner(5);
      EXPECT_EQ(DefaultNumThreads(), 5u);
    }
    EXPECT_EQ(DefaultNumThreads(), 3u);
  }
  EXPECT_EQ(DefaultNumThreads(), before);
  SetDefaultNumThreads(2);
  EXPECT_EQ(DefaultNumThreads(), 2u);
  SetDefaultNumThreads(0);  // reset to env/hardware default
  EXPECT_EQ(DefaultNumThreads(), before);
}

}  // namespace
}  // namespace umvsc
