// Tests of the multi-tenant job executor: the two-level scheduling budget
// (a budget-b job's parallel regions fan out over exactly b participants),
// bitwise determinism of job outputs against a plain serial loop at every
// worker count and submission order, exception isolation between sibling
// jobs, and the destructor resolving jobs it never started.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <future>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "exec/executor.h"
#include "la/matrix.h"
#include "la/svd.h"

namespace umvsc::exec {
namespace {

JobSpec MakeJob(std::function<Status(JobContext&)> work,
                std::size_t thread_budget = 1) {
  JobSpec spec;
  spec.work = std::move(work);
  spec.thread_budget = thread_budget;
  return spec;
}

TEST(JobExecutorTest, SubmitRunsJobAndReturnsItsStatus) {
  JobExecutor executor;
  std::atomic<bool> ran{false};
  JobHandle ok = executor.Submit(MakeJob([&ran](JobContext&) {
    ran.store(true);
    return Status::OK();
  }));
  EXPECT_TRUE(ok.Await().ok());
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(ok.Done());
  JobHandle bad = executor.Submit(MakeJob(
      [](JobContext&) { return Status::InvalidArgument("nope"); }));
  EXPECT_FALSE(bad.Await().ok());
}

// The level-2 budget satellite: a budget-b job's ParallelFor over many
// grain-1 chunks is cut into exactly b spans — one per participating
// thread — never the process default, never the whole pool.
TEST(JobExecutorTest, BudgetedJobFansOutOverExactlyBudgetSpans) {
  JobExecutor::Options options;
  options.num_workers = 1;
  JobExecutor executor(options);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{3}}) {
    std::atomic<std::size_t> spans{0};
    std::size_t seen_budget = 0;
    JobHandle handle =
        executor.Submit(MakeJob(
            [&spans, &seen_budget](JobContext& context) {
              seen_budget = context.thread_budget();
              ParallelFor(0, 24, 1, [&spans](std::size_t, std::size_t) {
                spans.fetch_add(1);
              });
              return Status::OK();
            },
            budget));
    ASSERT_TRUE(handle.Await().ok());
    EXPECT_EQ(seen_budget, budget);
    EXPECT_EQ(spans.load(), budget);
  }
}

// The budget must not leak: while a budget-1 job is running, a plain
// thread with no context still resolves the process default.
TEST(JobExecutorTest, BudgetDoesNotLeakOutsideTheJob) {
  JobExecutor executor;
  std::promise<void> inside;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  JobHandle handle = executor.Submit(MakeJob(
      [&inside, release_future](JobContext&) {
        inside.set_value();
        release_future.wait();
        return Status::OK();
      },
      /*thread_budget=*/1));
  inside.get_future().wait();
  EXPECT_EQ(CurrentParallelContext(), nullptr);  // this thread: no context
  release.set_value();
  EXPECT_TRUE(handle.Await().ok());
}

double NestedWorkload(std::size_t n) {
  // Outer fan-out whose body runs a nested ParallelFor — the composed
  // shape of a job: per-view loop around row-parallel kernels. Division
  // and sqrt make any partitioning change visible in the low bits.
  std::vector<double> rows(n, 0.0);
  ParallelFor(0, n, 2, [&rows](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      ParallelFor(i * 31, i * 31 + 97, 8,
                  [&acc, i](std::size_t lo2, std::size_t hi2) {
                    for (std::size_t j = lo2; j < hi2; ++j) {
                      acc += std::sqrt(static_cast<double>(j + 1)) /
                             static_cast<double>(i + 1);
                    }
                  });
      rows[i] = acc;
    }
  });
  double total = 0.0;
  for (double r : rows) total += r;
  return total;
}

// Nested ParallelFor inside a budgeted job is bitwise identical to the
// same computation run serially with no executor at all.
TEST(JobExecutorTest, NestedParallelForMatchesSerialBitwise) {
  const double serial = NestedWorkload(40);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      JobExecutor::Options options;
      options.num_workers = workers;
      JobExecutor executor(options);
      double value = 0.0;
      JobHandle handle = executor.Submit(MakeJob(
          [&value](JobContext&) {
            value = NestedWorkload(40);
            return Status::OK();
          },
          budget));
      ASSERT_TRUE(handle.Await().ok());
      EXPECT_EQ(value, serial) << "budget " << budget << " workers "
                               << workers;
    }
  }
}

// The exception-isolation satellite: a throwing job surfaces as ITS
// status, naming the job; siblings and the executor itself are unaffected.
TEST(JobExecutorTest, ExceptionInOneJobDoesNotPoisonSiblings) {
  JobExecutor::Options options;
  options.num_workers = 2;
  JobExecutor executor(options);
  JobSpec throwing = MakeJob([](JobContext&) -> Status {
    throw std::runtime_error("tenant bug");
  });
  throwing.name = "tenant-7";
  JobHandle thrower = executor.Submit(std::move(throwing));
  std::vector<JobHandle> siblings;
  for (int i = 0; i < 4; ++i) {
    siblings.push_back(executor.Submit(
        MakeJob([](JobContext&) { return Status::OK(); })));
  }
  Status failed = thrower.Await();
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("tenant bug"), std::string::npos);
  EXPECT_NE(failed.message().find("job 'tenant-7' threw"), std::string::npos)
      << failed.message();
  for (JobHandle& sibling : siblings) {
    EXPECT_TRUE(sibling.Await().ok());
  }
  // Still serviceable after the escape.
  EXPECT_TRUE(executor
                  .Submit(MakeJob([](JobContext&) { return Status::OK(); }))
                  .Await()
                  .ok());
}

la::Matrix TestMatrix(std::size_t n, std::uint64_t salt) {
  la::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Deterministic full-rank-ish fill; no RNG so every run agrees.
      m(i, j) = std::sin(static_cast<double>(salt + i * n + j + 1)) +
                (i == j ? 2.0 : 0.0);
    }
  }
  return m;
}

// The headline contract: per-job results (here, Procrustes rotations) are
// bitwise identical to a plain serial loop, at worker counts {1, 2, 8},
// forward and reversed order.
TEST(JobExecutorTest, JobOutputsMatchSerialLoopBitwiseEverywhere) {
  constexpr std::size_t kJobs = 24;
  std::vector<la::Matrix> inputs;
  inputs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    inputs.push_back(TestMatrix(3 + i % 3, 17 * (i + 1)));
  }
  std::vector<la::Matrix> baseline;
  for (const la::Matrix& input : inputs) {
    StatusOr<la::Matrix> rotation = la::ProcrustesRotation(input);
    ASSERT_TRUE(rotation.ok());
    baseline.push_back(std::move(*rotation));
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const bool reversed : {false, true}) {
      JobExecutor::Options options;
      options.num_workers = workers;
      JobExecutor executor(options);
      std::vector<la::Matrix> outputs(kJobs);
      std::vector<JobHandle> handles;
      for (std::size_t k = 0; k < kJobs; ++k) {
        const std::size_t idx = reversed ? kJobs - 1 - k : k;
        handles.push_back(executor.Submit(
            MakeJob([&inputs, &outputs, idx](JobContext&) {
              StatusOr<la::Matrix> rotation =
                  la::ProcrustesRotation(inputs[idx]);
              if (!rotation.ok()) return rotation.status();
              outputs[idx] = std::move(*rotation);
              return Status::OK();
            })));
      }
      for (JobHandle& handle : handles) ASSERT_TRUE(handle.Await().ok());
      for (std::size_t k = 0; k < kJobs; ++k) {
        ASSERT_EQ(outputs[k].rows(), baseline[k].rows());
        for (std::size_t i = 0; i < outputs[k].rows(); ++i) {
          for (std::size_t j = 0; j < outputs[k].cols(); ++j) {
            ASSERT_EQ(outputs[k](i, j), baseline[k](i, j))
                << "workers " << workers << " reversed " << reversed
                << " job " << k;
          }
        }
      }
    }
  }
}

TEST(JobExecutorTest, DestructorCancelsPendingJobs) {
  std::atomic<bool> second_ran{false};
  JobHandle pending;
  {
    JobExecutor executor;  // one worker
    std::promise<void> release;
    std::shared_future<void> release_future = release.get_future().share();
    executor.Submit(MakeJob([release_future](JobContext&) {
      release_future.wait();
      return Status::OK();
    }));
    pending = executor.Submit(MakeJob([&second_ran](JobContext&) {
      second_ran.store(true);
      return Status::OK();
    }));
    release.set_value();
    // Destructor: drains or cancels, then joins.
  }
  EXPECT_TRUE(pending.Done());
}

}  // namespace
}  // namespace umvsc::exec
