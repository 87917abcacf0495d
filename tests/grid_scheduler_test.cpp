// runCampaignGrid, driven through RunOptions as every campaign drives it:
// every cell runs exactly once, every cell failure is aggregated into one
// GridError (not first-exception-wins), per-cell retry with backoff, the
// wall-clock deadline (expired, passed mid-run, and too large to
// represent), the --progress report, and the determinism contract
// (bit-identical sweeps at any thread count) — at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/synthesis.h"
#include "core/fault_inject.h"
#include "core/isa_config.h"
#include "core/status.h"
#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"
#include "timing/cell_library.h"

namespace {

using oisa::core::ScopedFaultPlan;
using oisa::core::Status;
using oisa::core::StatusCode;
using oisa::core::StatusError;
using oisa::experiments::GridError;
using oisa::experiments::RunOptions;
using oisa::experiments::runCampaignGrid;

const unsigned kThreadCounts[] = {1, 2, 8};

RunOptions gridOptions(unsigned threads) {
  RunOptions options;
  options.threads = threads;
  options.retryBackoffMs = 0;
  return options;
}

void failAtGridCellSite(std::size_t) {
  oisa::core::fault_inject::maybeThrow(oisa::core::fault_inject::kGridCell,
                                       StatusCode::IoError);
}

TEST(CampaignGridTest, RunsEveryCellExactlyOnce) {
  for (const unsigned threads : kThreadCounts) {
    std::vector<std::atomic<int>> hits(257);
    runCampaignGrid(hits.size(), gridOptions(threads),
                    [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(CampaignGridTest, EmptyGridRunsNothing) {
  runCampaignGrid(0, gridOptions(4),
                  [](std::size_t) { FAIL() << "no cell to run"; });
}

TEST(CampaignGridErrorTest, AggregatesEveryFailureNotJustTheFirst) {
  for (const unsigned threads : kThreadCounts) {
    // Cells 3, 7, 11, 15 fail; all four must be reported, sorted by cell,
    // and the remaining 12 cells must still have run.
    std::atomic<int> ran{0};
    try {
      runCampaignGrid(16, gridOptions(threads), [&](std::size_t cell) {
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

TEST(CampaignGridErrorTest, GridErrorIsARuntimeError) {
  // Pre-taxonomy catch sites catch std::runtime_error.
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(runCampaignGrid(64, gridOptions(threads),
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("cell failed");
                                   }
                                 }),
                 std::runtime_error);
  }
}

TEST(CampaignGridErrorTest, PlainExceptionsBecomeInternalStatus) {
  try {
    runCampaignGrid(2, gridOptions(1),
                    [](std::size_t) { throw std::runtime_error("plain"); });
    FAIL();
  } catch (const GridError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].status.code(), StatusCode::Internal);
    EXPECT_NE(e.failures()[0].status.message().find("plain"),
              std::string::npos);
  }
}

TEST(CampaignGridRetryTest, TransientFailureSucceedsOnRetry) {
  // grid.cell:1 — exactly the first hit dies. With 2 attempts the retry
  // recomputes the same cell successfully.
  ScopedFaultPlan plan("grid.cell:1");
  RunOptions options = gridOptions(1);
  options.cellAttempts = 2;
  std::atomic<int> completed{0};
  runCampaignGrid(4, options, [&](std::size_t cell) {
    failAtGridCellSite(cell);
    completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), 4);
  // First attempt of the first cell + its retry + three clean cells.
  EXPECT_EQ(oisa::core::fault_inject::hitCount("grid.cell"), 5u);
}

TEST(CampaignGridRetryTest, PermanentFailureExhaustsAttemptsThenAggregates) {
  ScopedFaultPlan plan("grid.cell:1+");  // every hit fails
  for (const unsigned attempts : {1u, 3u}) {
    RunOptions options = gridOptions(1);
    options.cellAttempts = attempts;
    try {
      runCampaignGrid(2, options, failAtGridCellSite);
      FAIL() << "expected GridError";
    } catch (const GridError& e) {
      ASSERT_EQ(e.failures().size(), 2u);
      for (const auto& f : e.failures()) EXPECT_EQ(f.attempts, attempts);
    }
  }
}

TEST(CampaignGridRetryTest, InvalidInputIsNeverRetried) {
  RunOptions options = gridOptions(1);
  options.cellAttempts = 5;
  std::atomic<int> attempts{0};
  try {
    runCampaignGrid(1, options, [&](std::size_t) {
      attempts.fetch_add(1);
      throw StatusError(Status::invalidInput("caller bug"));
    });
    FAIL();
  } catch (const GridError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(e.failures()[0].attempts, 1u);
  }
  EXPECT_EQ(attempts.load(), 1);
}

TEST(CampaignGridDeadlineTest, ExpiredDeadlineRunsNothing) {
  for (const unsigned threads : kThreadCounts) {
    // The smallest positive budget rounds to a deadline at the grid's
    // start, which has passed before the first claim.
    RunOptions options = gridOptions(threads);
    options.deadlineSeconds = std::numeric_limits<double>::denorm_min();
    std::atomic<int> ran{0};
    try {
      runCampaignGrid(64, options, [&](std::size_t) { ran.fetch_add(1); });
      FAIL() << "expected GridError at " << threads << " threads";
    } catch (const GridError& e) {
      EXPECT_TRUE(e.cancelled());
      EXPECT_TRUE(e.failures().empty());
      EXPECT_EQ(e.cellsNotRun(), 64u);
    }
    EXPECT_EQ(ran.load(), 0) << threads << " threads";
  }
}

TEST(CampaignGridDeadlineTest, DeadlinePassedMidRunStopsClaims) {
  // Single worker for determinism: cell 2 outlasts the deadline, so cells
  // 3..9 must never be claimed (the deadline is checked before every
  // claim). The grid starts no later than cell 0 does, so waiting until
  // cell 0's start plus the budget has passed waits out the deadline.
  using Clock = std::chrono::steady_clock;
  RunOptions options = gridOptions(1);
  options.deadlineSeconds = 1.0;
  Clock::time_point firstCell;
  std::set<std::size_t> ran;
  try {
    runCampaignGrid(10, options, [&](std::size_t cell) {
      if (cell == 0) firstCell = Clock::now();
      ran.insert(cell);
      if (cell != 2) return;
      while (Clock::now() - firstCell <= std::chrono::seconds(1)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    FAIL() << "expected GridError";
  } catch (const GridError& e) {
    EXPECT_TRUE(e.cancelled());
    EXPECT_TRUE(e.failures().empty());
    EXPECT_EQ(e.cellsNotRun(), 7u);
  }
  EXPECT_EQ(ran, (std::set<std::size_t>{0, 1, 2}));
}

TEST(CampaignGridDeadlineTest, DeadlineTooLargeToRepresentIsNoDeadline) {
  // 1e300 s (or 1e19 s, the largest a CLI user plausibly types) is far
  // past what the steady clock can hold: the grid saturates it to no
  // deadline instead of wrapping it into the past.
  for (const double seconds : {1e300, 1e19, 9.3e9}) {
    for (const unsigned threads : kThreadCounts) {
      RunOptions options = gridOptions(threads);
      options.deadlineSeconds = seconds;
      std::atomic<int> ran{0};
      EXPECT_NO_THROW(runCampaignGrid(
          36, options, [&](std::size_t) { ran.fetch_add(1); }))
          << seconds << " s at " << threads << " threads";
      EXPECT_EQ(ran.load(), 36) << seconds << " s at " << threads
                                << " threads";
    }
  }
}

TEST(CampaignGridTest, ProgressCountsEveryCellAndRetry) {
  // The final progress line is printed when the grid ends, so at any
  // thread count it must show all five cells and the one retry.
  for (const unsigned threads : kThreadCounts) {
    RunOptions options = gridOptions(threads);
    options.progress = true;
    options.cellAttempts = 2;
    std::atomic<bool> failedOnce{false};
    std::atomic<int> completed{0};
    ::testing::internal::CaptureStderr();
    runCampaignGrid(5, options, [&](std::size_t cell) {
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

TEST(CampaignGridTest, ErrorCombinationIsBitIdenticalAcrossThreadCounts) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), lib, {}));
  designs.push_back(oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 2, 1, 4), lib, {}));
  const std::vector<double> cprs = {5.0, 15.0};

  auto runAt = [&](unsigned threads) {
    RunOptions options;
    options.cycles = 400;
    options.seed = 42;
    options.threads = threads;
    return oisa::experiments::runErrorCombination(designs, cprs, options);
  };
  const auto serial = runAt(1);
  ASSERT_EQ(serial.size(), 4u);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = runAt(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(serial[i].design + " @ " +
                   std::to_string(serial[i].cprPercent));
      EXPECT_EQ(parallel[i].design, serial[i].design);
      // Exact equality on purpose: per-cell state makes the grid result a
      // pure function of (inputs, seed), independent of scheduling.
      EXPECT_EQ(parallel[i].rmsRelStruct, serial[i].rmsRelStruct);
      EXPECT_EQ(parallel[i].rmsRelTiming, serial[i].rmsRelTiming);
      EXPECT_EQ(parallel[i].rmsRelJoint, serial[i].rmsRelJoint);
      EXPECT_EQ(parallel[i].meanAbsJointArith, serial[i].meanAbsJointArith);
      EXPECT_EQ(parallel[i].structErrorRate, serial[i].structErrorRate);
      EXPECT_EQ(parallel[i].timingErrorRate, serial[i].timingErrorRate);
      EXPECT_EQ(parallel[i].cycles, serial[i].cycles);
    }
  }
}

}  // namespace
