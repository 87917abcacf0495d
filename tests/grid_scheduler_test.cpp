// GridScheduler failure semantics: aggregation of every cell failure
// into one GridError (not first-exception-wins), per-cell retry with
// backoff, cooperative cancellation with a wall-clock deadline, the
// documented post-error state, and runCampaignGrid's --progress report —
// all at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "core/fault_inject.h"
#include "core/status.h"
#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"

namespace {

using oisa::core::ScopedFaultPlan;
using oisa::core::Status;
using oisa::core::StatusCode;
using oisa::core::StatusError;
using oisa::experiments::CancelToken;
using oisa::experiments::GridError;
using oisa::experiments::GridScheduler;
using oisa::experiments::RunOptions;
using oisa::experiments::RunPolicy;

const unsigned kThreadCounts[] = {1, 2, 8};

TEST(GridSchedulerErrorTest, AggregatesEveryFailureNotJustTheFirst) {
  for (const unsigned threads : kThreadCounts) {
    GridScheduler pool(threads);
    // Cells 3, 7, 11 fail; all three must be reported, sorted by cell,
    // and the remaining 13 cells must still have run.
    std::atomic<int> ran{0};
    try {
      pool.run(16, [&](std::size_t cell) {
        ran.fetch_add(1);
        if (cell % 4 == 3) {
          throw StatusError(Status::ioError("cell " + std::to_string(cell) +
                                            " died"));
        }
      });
      FAIL() << "expected GridError at " << threads << " threads";
    } catch (const GridError& e) {
      ASSERT_EQ(e.failures().size(), 4u) << threads << " threads";
      std::vector<std::size_t> cells;
      for (const auto& f : e.failures()) cells.push_back(f.cell);
      EXPECT_EQ(cells, (std::vector<std::size_t>{3, 7, 11, 15}));
      for (const auto& f : e.failures()) {
        EXPECT_EQ(f.status.code(), StatusCode::IoError);
        EXPECT_EQ(f.attempts, 1u);
      }
      EXPECT_FALSE(e.cancelled());
      EXPECT_EQ(e.cellsNotRun(), 0u);
    }
    // Documented post-error state: every cell was attempted exactly once.
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(GridSchedulerErrorTest, SchedulerIsReusableAfterAGridError) {
  for (const unsigned threads : kThreadCounts) {
    GridScheduler pool(threads);
    EXPECT_THROW(
        pool.run(8, [](std::size_t cell) {
          if (cell == 2) throw std::runtime_error("boom");
        }),
        GridError);
    // The next run starts clean: no stale failures, all cells execute.
    std::atomic<int> ran{0};
    EXPECT_NO_THROW(pool.run(8, [&](std::size_t) { ran.fetch_add(1); }));
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(GridSchedulerErrorTest, PlainExceptionsBecomeInternalStatus) {
  GridScheduler pool(1);
  try {
    pool.run(2, [](std::size_t) { throw std::runtime_error("plain"); });
    FAIL();
  } catch (const GridError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].status.code(), StatusCode::Internal);
    EXPECT_NE(e.failures()[0].status.message().find("plain"),
              std::string::npos);
  }
}

TEST(GridSchedulerRetryTest, TransientFailureSucceedsOnRetry) {
  // grid.cell:1 — exactly the first hit dies. With 2 attempts the retry
  // recomputes the same cell successfully.
  ScopedFaultPlan plan("grid.cell:1");
  GridScheduler pool(1);
  RunPolicy policy;
  policy.maxAttempts = 2;
  std::atomic<int> completed{0};
  pool.run(
      4,
      [&](std::size_t) {
        oisa::core::fault_inject::maybeThrow(
            oisa::core::fault_inject::kGridCell, StatusCode::IoError);
        completed.fetch_add(1);
      },
      policy);
  EXPECT_EQ(completed.load(), 4);
  // First attempt of the first cell + its retry + three clean cells.
  EXPECT_EQ(oisa::core::fault_inject::hitCount("grid.cell"), 5u);
}

TEST(GridSchedulerRetryTest, PermanentFailureExhaustsAttemptsThenAggregates) {
  ScopedFaultPlan plan("grid.cell:1+");  // every hit fails
  GridScheduler pool(1);
  RunPolicy policy;
  policy.maxAttempts = 3;
  try {
    pool.run(2, [&](std::size_t) {
      oisa::core::fault_inject::maybeThrow(
          oisa::core::fault_inject::kGridCell, StatusCode::IoError);
    });
    FAIL() << "expected GridError";
  } catch (const GridError& e) {
    // Default policy (no retry) on the 2-arg overload: attempts == 1.
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].attempts, 1u);
  }
  try {
    pool.run(
        2,
        [&](std::size_t) {
          oisa::core::fault_inject::maybeThrow(
              oisa::core::fault_inject::kGridCell, StatusCode::IoError);
        },
        policy);
    FAIL() << "expected GridError";
  } catch (const GridError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    for (const auto& f : e.failures()) EXPECT_EQ(f.attempts, 3u);
  }
}

TEST(GridSchedulerRetryTest, InvalidInputIsNeverRetried) {
  GridScheduler pool(1);
  RunPolicy policy;
  policy.maxAttempts = 5;
  std::atomic<int> attempts{0};
  try {
    pool.run(
        1,
        [&](std::size_t) {
          attempts.fetch_add(1);
          throw StatusError(Status::invalidInput("caller bug"));
        },
        policy);
    FAIL();
  } catch (const GridError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(e.failures()[0].attempts, 1u);
  }
  EXPECT_EQ(attempts.load(), 1);
}

TEST(GridSchedulerCancelTest, PreCancelledTokenRunsNothing) {
  for (const unsigned threads : kThreadCounts) {
    GridScheduler pool(threads);
    CancelToken cancel;
    cancel.requestCancel();
    RunPolicy policy;
    policy.cancel = &cancel;
    std::atomic<int> ran{0};
    try {
      pool.run(64, [&](std::size_t) { ran.fetch_add(1); }, policy);
      FAIL() << "expected GridError at " << threads << " threads";
    } catch (const GridError& e) {
      EXPECT_TRUE(e.cancelled());
      EXPECT_TRUE(e.failures().empty());
      EXPECT_EQ(e.cellsNotRun(), 64u);
    }
    EXPECT_EQ(ran.load(), 0) << threads << " threads";
  }
}

TEST(GridSchedulerCancelTest, MidRunCancelStopsClaimsPromptly) {
  // Single worker for determinism: cell 2 cancels, cells 3..9 must never
  // be claimed (the token is checked before every claim).
  GridScheduler pool(1);
  CancelToken cancel;
  RunPolicy policy;
  policy.cancel = &cancel;
  std::set<std::size_t> ran;
  try {
    pool.run(
        10,
        [&](std::size_t cell) {
          ran.insert(cell);
          if (cell == 2) cancel.requestCancel();
        },
        policy);
    FAIL() << "expected GridError";
  } catch (const GridError& e) {
    EXPECT_TRUE(e.cancelled());
    EXPECT_EQ(e.cellsNotRun(), 7u);
  }
  EXPECT_EQ(ran, (std::set<std::size_t>{0, 1, 2}));
}

TEST(GridSchedulerCancelTest, ExpiredDeadlineCancels) {
  for (const unsigned threads : kThreadCounts) {
    GridScheduler pool(threads);
    CancelToken cancel;
    cancel.setTimeout(std::chrono::nanoseconds{0});  // already expired
    RunPolicy policy;
    policy.cancel = &cancel;
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.run(32, [&](std::size_t) { ran.fetch_add(1); }, policy),
        GridError);
    EXPECT_EQ(ran.load(), 0) << threads << " threads";
    EXPECT_TRUE(cancel.cancelled());
  }
}

TEST(GridSchedulerCancelTest, CancellationLatches) {
  CancelToken cancel;
  EXPECT_FALSE(cancel.cancelled());
  cancel.setTimeout(std::chrono::hours{24});
  EXPECT_FALSE(cancel.cancelled());
  cancel.requestCancel();
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_TRUE(cancel.cancelled());  // stays cancelled
}

// --- runCampaignGrid: the --progress report ----------------------------

TEST(CampaignGridTest, ProgressCountsEveryCellAndRetry) {
  // The final progress line is printed when the grid ends, so at any
  // thread count it must show all five cells and the one retry.
  for (const unsigned threads : kThreadCounts) {
    RunOptions options;
    options.threads = threads;
    options.progress = true;
    options.cellAttempts = 2;
    options.retryBackoffMs = 0;
    std::atomic<bool> failedOnce{false};
    std::atomic<int> completed{0};
    ::testing::internal::CaptureStderr();
    oisa::experiments::runCampaignGrid(5, options, [&](std::size_t cell) {
      if (cell == 3 && !failedOnce.exchange(true)) {
        throw StatusError(Status::ioError("transient"));
      }
      completed.fetch_add(1);
    });
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(completed.load(), 5) << "threads=" << threads;
    EXPECT_NE(err.find("progress: 5/5 cells, 1 retries"), std::string::npos)
        << "threads=" << threads << ", stderr:\n" << err;
  }
}

}  // namespace
