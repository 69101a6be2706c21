// Tests of the per-thread ParallelContext — the two-level scheduling
// primitive: an installed budget caps the regions of THIS thread only,
// nests with scope-restore semantics, can be suspended, and never leaks to
// other threads the way SetDefaultNumThreads would.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace umvsc {
namespace {

// Number of spans a region fans out into = number of fn invocations for a
// many-chunk grain-1 range.
std::size_t CountSpans(std::size_t range, std::size_t num_threads = 0) {
  std::atomic<std::size_t> spans{0};
  ParallelFor(
      0, range, 1,
      [&spans](std::size_t, std::size_t) { spans.fetch_add(1); },
      num_threads);
  return spans.load();
}

TEST(ParallelContextTest, NoContextInstalledByDefault) {
  EXPECT_EQ(CurrentParallelContext(), nullptr);
}

TEST(ParallelContextTest, InstalledBudgetCapsRegionFanOut) {
  const ScopedParallelContext budget(ParallelContext{2});
  ASSERT_NE(CurrentParallelContext(), nullptr);
  EXPECT_EQ(CurrentParallelContext()->num_threads, 2u);
  EXPECT_EQ(CountSpans(16), 2u);
}

TEST(ParallelContextTest, BudgetOneMeansSerial) {
  const ScopedParallelContext budget(ParallelContext{1});
  EXPECT_EQ(CountSpans(16), 1u);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelContextTest, ExplicitPerCallCountOverridesContext) {
  const ScopedParallelContext budget(ParallelContext{1});
  EXPECT_EQ(CountSpans(16, /*num_threads=*/3), 3u);
}

TEST(ParallelContextTest, ZeroBudgetFallsThroughToProcessDefault) {
  const ScopedNumThreads process_default(3);
  const ScopedParallelContext budget(ParallelContext{0});
  EXPECT_EQ(CountSpans(16), 3u);
}

TEST(ParallelContextTest, ScopesNestAndRestoreTheirPredecessor) {
  EXPECT_EQ(CurrentParallelContext(), nullptr);
  {
    const ScopedParallelContext outer(ParallelContext{4});
    EXPECT_EQ(CurrentParallelContext()->num_threads, 4u);
    {
      const ScopedParallelContext inner(ParallelContext{2});
      EXPECT_EQ(CurrentParallelContext()->num_threads, 2u);
      EXPECT_EQ(CountSpans(16), 2u);
    }
    EXPECT_EQ(CurrentParallelContext()->num_threads, 4u);
  }
  EXPECT_EQ(CurrentParallelContext(), nullptr);
}

TEST(ParallelContextTest, ContextIsPerThreadAndNeverLeaks) {
  const ScopedParallelContext budget(ParallelContext{2});
  const ParallelContext* other_thread_sees =
      &*CurrentParallelContext();  // placeholder, overwritten below
  std::size_t other_thread_spans = 0;
  std::thread other([&other_thread_sees, &other_thread_spans] {
    other_thread_sees = CurrentParallelContext();
    const ScopedNumThreads process_default(4);
    other_thread_spans = CountSpans(16);
  });
  other.join();
  // A fresh thread has no context — the installer's budget stayed local —
  // and resolves the process default instead.
  EXPECT_EQ(other_thread_sees, nullptr);
  EXPECT_EQ(other_thread_spans, 4u);
  EXPECT_EQ(CurrentParallelContext()->num_threads, 2u);
}

}  // namespace
}  // namespace umvsc
