// oisa_experiments: deterministic, fault-tolerant thread pool for
// experiment grids.
//
// The figure pipelines sweep a (design × CPR) grid where every cell owns
// its full state — seeded workload, timed simulator, statistics — so cells
// can run in any order on any thread and still produce bit-identical
// results. GridScheduler is the worker pool that fans those cells out:
// workers are spawned once per scheduler and reused by every run() call
// made on it, cells are claimed from an atomic counter, and the calling
// thread works alongside the pool so `threads == 1` degrades to the
// plain serial loop. Current callers scope one scheduler per sweep
// (sized to the grid by runCampaignGrid); longer-lived sharing
// across sweeps is supported but not yet used.
//
// Determinism contract: a task must derive all randomness from its cell
// index (e.g. `options.seed + offset`), never from shared mutable state or
// the worker identity. Under that contract the grid result is a pure
// function of (inputs, seed) — verified at 1/2/8 threads by
// tests/wheel_sim_test.cpp.
//
// Failure contract: one bad cell must not throw away the rest of a
// multi-hour campaign. A cell failure is recorded (not rethrown) and the
// remaining cells keep running; when the grid finishes, run() throws a
// GridError aggregating *every* failed cell with its typed cause, so the
// caller still holds the completed cells' results (and can checkpoint
// them). A RunPolicy adds per-cell retry-with-backoff for transient
// failures and a cooperative CancelToken with a wall-clock deadline.
//
// Post-error / post-cancel state, precisely:
//  * every cell either ran to completion (its result is in the caller's
//    output slot), exhausted its retry attempts (listed in
//    GridError::failures()), or was never claimed after cancellation
//    (counted by GridError::cellsNotRun(), output slot untouched);
//  * cancellation is prompt: once the token fires, no worker claims
//    another cell (checked before every claim) — cells already
//    executing finish normally, and run() returns as soon as they do;
//  * the pool itself stays healthy: a later run() on the same scheduler
//    behaves exactly like a run on a fresh one.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"

namespace oisa::experiments {

/// Cooperative cancellation: observed by GridScheduler between cell
/// claims (cells are coarse, so that is the natural preemption point).
/// Either requestCancel() or passing the wall-clock deadline trips it;
/// once tripped it stays tripped.
class CancelToken {
 public:
  /// Trips the token immediately.
  void requestCancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Trips the token once `now() >= deadline`.
  void setDeadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadlineNs_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// Trips the token `budget` from now.
  void setTimeout(std::chrono::nanoseconds budget) noexcept {
    setDeadline(std::chrono::steady_clock::now() + budget);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::int64_t d = deadlineNs_.load(std::memory_order_relaxed);
    if (d == kNoDeadline) return false;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now < d) return false;
    cancelled_.store(true, std::memory_order_relaxed);  // latch
    return true;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadlineNs_{kNoDeadline};
};

/// One failed grid cell: which cell, why, and how many attempts it got.
struct CellFailure {
  std::size_t cell = 0;
  core::Status status;
  unsigned attempts = 1;
};

/// Aggregate failure of a grid run: every failed cell with its typed
/// cause, plus whether cancellation cut the grid short. Derives from
/// std::runtime_error so pre-taxonomy catch sites keep working.
class GridError : public std::runtime_error {
 public:
  GridError(std::vector<CellFailure> failures, bool cancelled,
            std::size_t cellsNotRun);

  [[nodiscard]] const std::vector<CellFailure>& failures() const noexcept {
    return failures_;
  }
  /// True when a CancelToken (deadline or explicit) stopped the run.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }
  /// Cells never claimed because of cancellation.
  [[nodiscard]] std::size_t cellsNotRun() const noexcept {
    return cellsNotRun_;
  }

 private:
  std::vector<CellFailure> failures_;
  bool cancelled_ = false;
  std::size_t cellsNotRun_ = 0;
};

/// Per-run failure-handling controls.
struct RunPolicy {
  /// Total tries per cell (1 = no retry). A failure is retried unless its
  /// code is InvalidInput (a bad cell stays bad) or Deadline.
  unsigned maxAttempts = 1;
  /// Sleep before retry k is `retryBackoff << (k - 1)` (exponential).
  std::chrono::milliseconds retryBackoff{0};
  /// Optional cooperative cancellation / wall-clock deadline.
  CancelToken* cancel = nullptr;
  /// Optional non-owning counter bumped once per retry (attempt 2+), for
  /// the --progress report.
  std::atomic<std::uint64_t>* retryCounter = nullptr;
};

/// Persistent worker pool distributing independent grid cells.
class GridScheduler {
 public:
  /// `threads` — total worker count including the calling thread;
  /// 0 = hardware concurrency.
  explicit GridScheduler(unsigned threads = 0);
  ~GridScheduler();

  GridScheduler(const GridScheduler&) = delete;
  GridScheduler& operator=(const GridScheduler&) = delete;

  /// Total workers (calling thread included).
  [[nodiscard]] unsigned threadCount() const noexcept { return threadCount_; }

  /// Runs task(0..count-1) across the pool and blocks until every cell
  /// finished (or cancellation stopped further claims). Throws GridError
  /// aggregating all cell failures — never just the first — after the
  /// surviving cells completed. See the header comment for the exact
  /// post-error state.
  void run(std::size_t count, const std::function<void(std::size_t)>& task) {
    run(count, task, RunPolicy{});
  }

  /// As above with retry/backoff and cancellation controls.
  void run(std::size_t count, const std::function<void(std::size_t)>& task,
           const RunPolicy& policy);

 private:
  void workerLoop();
  void drain();
  void executeCell(std::size_t cell);

  unsigned threadCount_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // current job
  const RunPolicy* policy_ = nullptr;                       // current job
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::int64_t> runStartNs_{0};  // obs: queue-wait baseline
  std::atomic<bool> stopClaims_{false};  // cancellation observed
  std::vector<CellFailure> failures_;    // guarded by mutex_
  unsigned busy_ = 0;          // workers still draining the current job
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace oisa::experiments
