// oisa_experiments: the failure report of a campaign grid.
//
// runCampaignGrid (experiments/runner.h) fans a grid of independent
// cells out over worker threads. One bad cell must not throw away the
// rest of a multi-hour campaign: a cell failure is recorded, not
// rethrown, and the remaining cells keep running. When the grid ends,
// runCampaignGrid throws one GridError listing *every* failed cell with
// its typed cause, sorted by cell, so the caller still holds the
// completed cells' results (and can checkpoint them).
//
// Post-error state, precisely: every cell either ran to completion (its
// result is in the caller's output slot), exhausted its attempts (listed
// in failures()), or was never claimed because the deadline passed
// (counted by cellsNotRun(), output slot untouched).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/status.h"

namespace oisa::experiments {

/// One failed grid cell: which cell, why, and how many attempts it got.
struct CellFailure {
  std::size_t cell = 0;
  core::Status status;
  unsigned attempts = 1;
};

/// Aggregate failure of a grid run: every failed cell with its typed
/// cause, plus the cells a passed deadline left unclaimed. Derives from
/// std::runtime_error so pre-taxonomy catch sites keep working.
class GridError : public std::runtime_error {
 public:
  GridError(std::vector<CellFailure> failures, std::size_t cellsNotRun);

  [[nodiscard]] const std::vector<CellFailure>& failures() const noexcept {
    return failures_;
  }
  /// True when the deadline stopped the run before every cell was claimed.
  [[nodiscard]] bool cancelled() const noexcept { return cellsNotRun_ > 0; }
  /// Cells never claimed because the deadline passed.
  [[nodiscard]] std::size_t cellsNotRun() const noexcept {
    return cellsNotRun_;
  }

 private:
  std::vector<CellFailure> failures_;
  std::size_t cellsNotRun_ = 0;
};

}  // namespace oisa::experiments
