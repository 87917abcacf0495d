// oisa_experiments: end-to-end experiment pipelines for the paper's
// evaluation section. One function per figure; bench binaries are thin
// wrappers around these so tests can exercise the same code paths.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/fault_inject.h"
#include "experiments/checkpoint.h"
#include "experiments/workload.h"
#include "predict/bit_predictor.h"

namespace oisa::experiments {

/// Shared run controls.
struct RunOptions {
  std::uint64_t cycles = 20000;     ///< characterization cycles per run
  std::uint64_t seed = 42;
  std::string workload = "uniform";
  double signOffPeriodNs = 0.3;     ///< the paper's constraint
  /// Worker threads across (design, CPR) points; 0 = hardware concurrency.
  /// Results are bit-identical regardless of the thread count (each point
  /// owns its seeded workload and simulator).
  unsigned threads = 0;
  /// Crash-safety: when checkpoint.path is set, completed grid cells are
  /// snapshotted there (atomically, every checkpoint.everyCells cells)
  /// and checkpoint.resume skips cells the snapshot already holds —
  /// resumed campaigns are byte-identical to uninterrupted ones because
  /// every cell is a pure function of (inputs, seed).
  CheckpointOptions checkpoint;
  /// Per-cell tries (1 = no retry); transient failures (IoError, ...)
  /// are retried with exponential backoff, then aggregated in GridError.
  unsigned cellAttempts = 1;
  std::uint64_t retryBackoffMs = 100;  ///< base backoff between tries
  /// Wall-clock budget for the whole grid; 0, or a budget too large for
  /// the steady clock to represent, is unlimited. On expiry the
  /// sweep stops claiming cells and throws GridError (completed cells
  /// are already checkpointed when checkpointing is on).
  double deadlineSeconds = 0.0;
  /// Periodic single-line progress report on stderr (cells done/total,
  /// retries, ETA) — the --progress flag.
  bool progress = false;
};

/// One (design, CPR) row of the Fig. 9 study.
struct CombinationRow {
  std::string design;
  double cprPercent = 0.0;
  double periodNs = 0.0;
  // Relative-error RMS, the paper's headline metric (in fractional units;
  // multiply by 100 for the paper's % axis).
  double rmsRelStruct = 0.0;
  double rmsRelTiming = 0.0;
  double rmsRelJoint = 0.0;
  // Supporting numbers.
  double meanAbsJointArith = 0.0;
  double structErrorRate = 0.0;
  double timingErrorRate = 0.0;
  std::uint64_t cycles = 0;
};

/// Fig. 9: structural/timing/joint relative-error RMS per design per CPR.
/// Throws core::StatusError(InvalidInput) before any cell runs when
/// `options.cycles` is 0.
[[nodiscard]] std::vector<CombinationRow> runErrorCombination(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const RunOptions& options);

/// One (design, CPR) row of the Fig. 7 / Fig. 8 studies.
struct PredictionRow {
  std::string design;
  double cprPercent = 0.0;
  double periodNs = 0.0;
  double abper = 0.0;
  double avpe = 0.0;
  std::uint64_t trainCycles = 0;
  std::uint64_t testCycles = 0;
};

/// Extra controls for the prediction study.
struct PredictionOptions {
  RunOptions run{};
  std::uint64_t trainCycles = 12000;
  std::uint64_t testCycles = 6000;
  predict::PredictorParams predictor{};
  /// When non-empty, each grid cell persists its trained bank as binary
  /// envelope v2 at "<modelOut>.<design>.cpr<cpr>.ffb" after fitting.
  std::string modelOut;
  /// When non-empty, each grid cell mmap-loads its bank from
  /// "<modelIn>.<design>.cpr<cpr>.ffb" instead of collecting a training
  /// trace and fitting — the evaluation rows are bit-identical to the
  /// trained run that wrote the banks (neither path is fingerprinted
  /// into checkpoints for exactly that reason).
  std::string modelIn;
};

/// Figs. 7-8: train the bit-level model per (design, CPR), evaluate ABPER
/// and AVPE on held-out cycles. Throws core::StatusError(InvalidInput)
/// before any cell runs when `testCycles` < 2, or `trainCycles` < 2 while
/// the cells train (no `modelIn`).
[[nodiscard]] std::vector<PredictionRow> runPredictionEvaluation(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const PredictionOptions& options);

/// Fig. 10: per-bit-position structural and timing error rates.
struct BitDistributionResult {
  std::string design;
  double cprPercent = 0.0;
  std::vector<double> structuralRate;  ///< index = bit position (cout last)
  std::vector<double> timingRate;
};

/// Throws core::StatusError(InvalidInput) when `options.cycles` is 0.
[[nodiscard]] BitDistributionResult runBitDistribution(
    const circuits::SynthesizedDesign& design, double cprPercent,
    const RunOptions& options);

/// The whole grid: runs task(0..count-1) on min(options.threads, count)
/// workers (0 threads = hardware concurrency; the calling thread is one
/// of them) that claim cells from one atomic counter, and joins them
/// before returning. Results are bit-identical at any thread count when
/// every cell derives its state from its index alone.
///  * No cell is claimed once options.deadlineSeconds have passed (0, or
///    a budget too large to represent, is no deadline); running cells
///    finish.
///  * A failed cell is tried up to options.cellAttempts times in all,
///    sleeping retryBackoffMs << (k - 1) ms before retry k, unless its
///    code is InvalidInput or Deadline or the deadline has passed.
///  * A failure never stops the other cells. After the join, one
///    GridError lists every failed cell, sorted by cell, and counts the
///    cells the deadline left unclaimed; a plain exception becomes an
///    Internal status.
///  * options.progress prints a stderr line (cells done/total, retries,
///    elapsed, ETA) when a cell ends 2 s or more after the last line, and
///    a final line before returning or throwing.
/// Each cell runs inside one `cell` span, the grid inside one `campaign`
/// span; grid.cells_completed, grid.retries, grid.cell_failures and the
/// grid.queue_wait_us histogram count what the grid did.
void runCampaignGrid(std::size_t count, const RunOptions& options,
                     const std::function<void(std::size_t)>& task);

/// The checkpoint protocol the checkpointed pipelines share, over
/// runCampaignGrid: returns `count` rows, row i computed by cell(i) or
/// adopted from the snapshot options.checkpoint resumes. `fields(row, io)`
/// is the row codec: it passes the row's fields, in payload order, to
/// `io` (PayloadWriter or PayloadReader). `fingerprint` is the campaign
/// identity a snapshot must match (CampaignCheckpoint). A snapshotted cell
/// whose payload decodes is served without running; any other cell
/// passes the grid.cell fault-injection site first, so "grid.cell:*"
/// fails every recomputation, then runs and is committed. The snapshot is
/// saved when the grid ends, on its error path too.
template <typename Row, typename Fields, typename Cell>
[[nodiscard]] std::vector<Row> runCheckpointedGrid(std::size_t count,
                                                   const RunOptions& options,
                                                   std::uint64_t fingerprint,
                                                   Fields fields, Cell cell) {
  std::vector<Row> rows(count);
  CampaignCheckpoint ckpt(options.checkpoint, fingerprint, count);
  const auto run = [&](std::size_t i) {
    if (const auto payload = ckpt.tryLoad(i)) {
      Row row;
      PayloadReader reader(*payload);
      fields(row, reader);
      if (reader.ok() && reader.atEnd()) {
        rows[i] = std::move(row);
        return;
      }
    }
    core::fault_inject::maybeThrow(core::fault_inject::kGridCell,
                                   core::StatusCode::IoError);
    rows[i] = cell(i);
    PayloadWriter writer;
    fields(rows[i], writer);
    ckpt.commit(i, writer.take());
  };
  try {
    runCampaignGrid(count, options, run);
  } catch (...) {
    (void)ckpt.finish();  // persist the surviving cells before surfacing
    throw;
  }
  (void)ckpt.finish();
  return rows;
}

/// Throws core::StatusError(InvalidInput), naming `pipeline` and
/// `option`, when `value` < `minimum`: the pipelines' check on their
/// cycle counts before any cell runs.
void requireAtLeast(const char* pipeline, const char* option,
                    std::uint64_t value, std::uint64_t minimum);

}  // namespace oisa::experiments
