// oisa_experiments: end-to-end experiment pipelines for the paper's
// evaluation section. One function per figure; bench binaries are thin
// wrappers around these so tests can exercise the same code paths.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <functional>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "experiments/checkpoint.h"
#include "experiments/shard.h"
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
  /// Wall-clock budget for the whole grid; 0 = unlimited. On expiry the
  /// sweep stops claiming cells and throws GridError (completed cells
  /// are already checkpointed when checkpointing is on).
  double deadlineSeconds = 0.0;
  /// Multi-process sharding (experiments/shard.h): this process computes
  /// only the cells its slice owns; quarantined cells are skipped (their
  /// output rows stay default-constructed). The default slice owns all.
  ShardSlice shard;
  /// Periodic single-line progress heartbeat on stderr (cells done/total,
  /// retries, ETA) — the --progress flag.
  bool progress = false;
  /// Non-owning; shard workers set this so the grid loop reports cell
  /// starts/completions upstream over the supervisor's heartbeat pipe.
  HeartbeatEmitter* heartbeat = nullptr;
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
/// and AVPE on held-out cycles.
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

[[nodiscard]] BitDistributionResult runBitDistribution(
    const circuits::SynthesizedDesign& design, double cprPercent,
    const RunOptions& options);

/// Fans task(0..count-1) across a GridScheduler pool sized to the owned
/// cells, applying the RunOptions failure policy (retry/backoff,
/// deadline), shard-slice filtering, and progress/heartbeat monitoring.
/// Every campaign pipeline's grid loop goes through here, which is what
/// makes sharded and unsharded runs byte-identical: the only difference
/// is which cells the slice owns. Honors the OISA_ABORT_ON_CELL=<cell>
/// environment hook (deterministic poison-cell crash for quarantine
/// tests).
void runCampaignGrid(std::size_t count, const RunOptions& options,
                     const std::function<void(std::size_t)>& task);

}  // namespace oisa::experiments
