#include "experiments/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/bit_distribution.h"
#include "core/isa_adder.h"
#include "experiments/grid_scheduler.h"
#include "experiments/trace_collector.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::experiments {

namespace {

std::unique_ptr<Workload> workloadFor(const RunOptions& options, int width,
                                      std::uint64_t seedOffset) {
  return makeWorkload(options.workload, width, options.seed + seedOffset);
}

/// Per-cell flat-bank path for PredictionOptions::modelOut / modelIn.
std::string bankPath(const std::string& base, const std::string& design,
                     double cpr) {
  std::ostringstream os;
  os << base << '.' << design << ".cpr" << cpr << ".ffb";
  return os.str();
}

/// Everything every campaign fingerprint depends on: the cell grid
/// (design identities × CPR points) and the shared run controls. Thread
/// count and checkpoint controls are deliberately absent — they do not
/// change any cell's value.
CampaignFingerprint baseFingerprint(
    std::string_view pipeline,
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const RunOptions& options) {
  CampaignFingerprint fp(pipeline);
  fp.mix(static_cast<std::uint64_t>(designs.size()));
  for (const auto& design : designs) {
    fp.mix(design.config.name());
    fp.mix(static_cast<std::uint64_t>(design.netlist.gateCount()));
  }
  fp.mix(static_cast<std::uint64_t>(cprPercents.size()));
  for (const double cpr : cprPercents) fp.mix(cpr);
  fp.mix(options.cycles);
  fp.mix(options.seed);
  fp.mix(options.workload);
  fp.mix(options.signOffPeriodNs);
  return fp;
}

// --- checkpoint row codecs ----------------------------------------------
// Each row's fields in payload order. Doubles travel as bit patterns
// (PayloadWriter::f64), so a resumed row is byte-for-byte the row the
// interrupted run computed.

constexpr auto combinationFields = [](CombinationRow& row, auto& io) {
  io(row.design, row.cprPercent, row.periodNs, row.rmsRelStruct,
     row.rmsRelTiming, row.rmsRelJoint, row.meanAbsJointArith,
     row.structErrorRate, row.timingErrorRate, row.cycles);
};

constexpr auto predictionFields = [](PredictionRow& row, auto& io) {
  io(row.design, row.cprPercent, row.periodNs, row.abper, row.avpe,
     row.trainCycles, row.testCycles);
};

// --- the grid ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// The instant `seconds` after `start`. A budget of 0, or one too large
/// for the clock to represent, is no deadline: Clock::time_point::max().
Clock::time_point deadlineAfter(Clock::time_point start, double seconds) {
  const std::chrono::duration<double> budget(seconds);
  if (!(seconds > 0.0) || budget >= Clock::time_point::max() - start) {
    return Clock::time_point::max();
  }
  return start + std::chrono::duration_cast<Clock::duration>(budget);
}

/// Retry unless the taxonomy says the failure cannot be transient.
bool isRetryable(const core::Status& status) noexcept {
  return status.code() != core::StatusCode::InvalidInput &&
         status.code() != core::StatusCode::Deadline;
}

/// One --progress line on stderr: cells done/total, retries, elapsed, ETA.
void printProgress(std::size_t done, std::size_t total, std::uint64_t retries,
                   Clock::duration elapsedTime) {
  const double elapsed = std::chrono::duration<double>(elapsedTime).count();
  std::string line = "progress: " + std::to_string(done) + "/" +
                     std::to_string(total) + " cells";
  if (retries > 0) line += ", " + std::to_string(retries) + " retries";
  char timing[64];
  std::snprintf(timing, sizeof timing, ", elapsed %.1fs", elapsed);
  line += timing;
  if (done > 0 && done < total) {
    const double eta = elapsed / static_cast<double>(done) *
                       static_cast<double>(total - done);
    std::snprintf(timing, sizeof timing, ", eta %.1fs", eta);
    line += timing;
  }
  line += "\n";
  // One write, so the line never interleaves with other stderr output.
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

std::string gridErrorMessage(const std::vector<CellFailure>& failures,
                             std::size_t cellsNotRun) {
  std::string msg = "campaign grid: ";
  if (!failures.empty()) {
    msg += std::to_string(failures.size()) + " cell(s) failed";
    msg += " (first: cell " + std::to_string(failures.front().cell) + ": " +
           failures.front().status.toString() + ")";
  }
  if (cellsNotRun > 0) {
    if (!failures.empty()) msg += "; ";
    msg += "cancelled with " + std::to_string(cellsNotRun) +
           " cell(s) never claimed";
  }
  return msg;
}

}  // namespace

GridError::GridError(std::vector<CellFailure> failures,
                     std::size_t cellsNotRun)
    : std::runtime_error(gridErrorMessage(failures, cellsNotRun)),
      failures_(std::move(failures)),
      cellsNotRun_(cellsNotRun) {}

void requireAtLeast(const char* pipeline, const char* option,
                    std::uint64_t value, std::uint64_t minimum) {
  if (value < minimum) {
    throw core::StatusError(core::Status::invalidInput(
        std::string(pipeline) + ": " + option + " must be at least " +
        std::to_string(minimum) + ", got " + std::to_string(value)));
  }
}

void runCampaignGrid(std::size_t count, const RunOptions& options,
                     const std::function<void(std::size_t)>& task) {
  static obs::Counter& cellsCompleted = obs::counter("grid.cells_completed");
  static obs::Counter& cellRetries = obs::counter("grid.retries");
  static obs::Counter& cellFailures = obs::counter("grid.cell_failures");
  static obs::Histogram& queueWait = obs::histogram("grid.queue_wait_us");
  const obs::ObsSpan span("campaign", "grid", "cells", count);
  if (count == 0) return;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      deadlineAfter(start, options.deadlineSeconds);
  const unsigned maxAttempts = std::max(options.cellAttempts, 1u);
  const std::chrono::milliseconds backoff(options.retryBackoffMs);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> retries{0};
  std::mutex mutex;  // guards failures and lastReport
  std::vector<CellFailure> failures;
  Clock::time_point lastReport = start;

  const auto runCell = [&](std::size_t cell) {
    const obs::ObsSpan cellSpan("cell", "grid", "cell", cell);
    core::Status status;
    unsigned attempt = 0;
    for (;;) {
      ++attempt;
      try {
        task(cell);
        cellsCompleted.add();
        done.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (const core::StatusError& e) {
        status = e.status();
      } catch (const std::exception& e) {
        status = core::Status::internal(e.what());
      } catch (...) {
        status = core::Status::internal("unknown exception");
      }
      if (attempt >= maxAttempts || !isRetryable(status) ||
          Clock::now() >= deadline) {
        break;
      }
      cellRetries.add();
      retries.fetch_add(1, std::memory_order_relaxed);
      // Exponential backoff, capped at 2^10 periods so a misconfigured
      // attempt count cannot sleep for hours.
      std::this_thread::sleep_for(backoff * (1u << std::min(attempt - 1, 10u)));
    }
    cellFailures.add();
    const std::lock_guard<std::mutex> lock(mutex);
    failures.push_back(CellFailure{cell, std::move(status), attempt});
  };

  const auto work = [&] {
    // The deadline is checked before every claim, so no cell is claimed
    // after it passes; cells already running finish.
    while (Clock::now() < deadline) {
      const std::size_t cell = next.fetch_add(1);
      if (cell >= count) break;
      // Queue wait: how long this cell sat unclaimed behind the cells
      // ahead of it.
      queueWait.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                start)
              .count()));
      runCell(cell);
      if (!options.progress) continue;
      const std::lock_guard<std::mutex> lock(mutex);
      const Clock::time_point now = Clock::now();
      if (now - lastReport < std::chrono::seconds(2)) continue;
      lastReport = now;
      printProgress(done.load(), count, retries.load(), now - start);
    }
  };

  unsigned threads = options.threads == 0
                         ? std::thread::hardware_concurrency()
                         : options.threads;
  threads = static_cast<unsigned>(std::clamp<std::size_t>(threads, 1, count));
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i) helpers.emplace_back(work);
    work();  // the calling thread is the first worker
  }  // joins the helpers
  if (options.progress) {
    printProgress(done.load(), count, retries.load(), Clock::now() - start);
  }
  const std::size_t cellsNotRun = count - std::min(next.load(), count);
  if (failures.empty() && cellsNotRun == 0) return;
  // Report order is the cell order, whichever worker failed first.
  std::sort(failures.begin(), failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.cell < b.cell;
            });
  throw GridError(std::move(failures), cellsNotRun);
}

std::vector<CombinationRow> runErrorCombination(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const RunOptions& options) {
  requireAtLeast("runErrorCombination", "cycles (--cycles)", options.cycles,
                 1);
  return runCheckpointedGrid<CombinationRow>(
      designs.size() * cprPercents.size(), options,
      baseFingerprint("runErrorCombination", designs, cprPercents, options)
          .digest(),
      combinationFields, [&](std::size_t point) {
        const circuits::SynthesizedDesign& design =
            designs[point / cprPercents.size()];
        const double cpr = cprPercents[point % cprPercents.size()];
        const double period =
            overclockedPeriodNs(options.signOffPeriodNs, cpr);
        // Same workload seed across designs and CPRs so every design sees
        // the same stimulus, as in the paper's common random sample. The
        // collector runs it window by window (records bit-identical to the
        // sequential path), and each window folds straight into the
        // combination in record order, so the cell holds one window
        // however many cycles it runs.
        auto workload = workloadFor(options, design.config.width, 0);
        TraceCollector collector(design, period);
        const core::ErrorCombination combo = combineErrors(
            collector, *workload, options.cycles, design.config.width);
        CombinationRow row;
        row.design = design.config.name();
        row.cprPercent = cpr;
        row.periodNs = period;
        row.rmsRelStruct = combo.relStruct().rms();
        row.rmsRelTiming = combo.relTiming().rms();
        row.rmsRelJoint = combo.relJoint().rms();
        row.meanAbsJointArith = combo.arithJoint().meanAbs();
        row.structErrorRate = combo.arithStruct().errorRate();
        row.timingErrorRate = combo.arithTiming().errorRate();
        row.cycles = combo.cycles();
        return row;
      });
}

std::vector<PredictionRow> runPredictionEvaluation(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const PredictionOptions& options) {
  requireAtLeast("runPredictionEvaluation", "testCycles (--test-cycles)",
                 options.testCycles, 2);
  if (options.modelIn.empty()) {
    requireAtLeast("runPredictionEvaluation", "trainCycles (--train-cycles)",
                   options.trainCycles, 2);
    if (options.predictor.model == predict::ModelKind::RandomForest) {
      requireAtLeast("runPredictionEvaluation", "forest.treeCount (--trees)",
                     options.predictor.forest.treeCount, 1);
    }
  }
  CampaignFingerprint fp = baseFingerprint("runPredictionEvaluation", designs,
                                           cprPercents, options.run);
  fp.mix(options.trainCycles);
  fp.mix(options.testCycles);
  fp.mix(static_cast<std::uint64_t>(options.predictor.model));
  fp.mix(std::uint64_t{options.predictor.includeOutputBits ? 1u : 0u});
  fp.mix(options.predictor.seed);
  fp.mix(static_cast<std::uint64_t>(options.predictor.forest.treeCount));
  fp.mix(static_cast<std::uint64_t>(options.predictor.forest.tree.maxDepth));
  return runCheckpointedGrid<PredictionRow>(
      designs.size() * cprPercents.size(), options.run, fp.digest(),
      predictionFields, [&](std::size_t point) {
        const circuits::SynthesizedDesign& design =
            designs[point / cprPercents.size()];
        const double cpr = cprPercents[point % cprPercents.size()];
        const double period =
            overclockedPeriodNs(options.run.signOffPeriodNs, cpr);
        // Train and test stimuli come from differently-seeded streams. One
        // TraceCollector per point shares its unrolled netlist and batch
        // evaluator across both collections; fit trains on the packed
        // feature/label words of its trace, and evaluate packs and scores
        // the test trace 64 record pairs at a time.
        TraceCollector collector(design, period);
        auto testWorkload = workloadFor(options.run, design.config.width, 2);
        // modelIn short-circuits training entirely: the cell's bank mmaps
        // in (envelope v2) and only the held-out stimulus is collected.
        // Both arms evaluate through the same flat-bank batched sweep, so
        // the rows — and any CSV written from them — are byte-identical.
        predict::BitLevelPredictor predictor = [&] {
          if (!options.modelIn.empty()) {
            return predict::BitLevelPredictor::loadFlat(
                       bankPath(options.modelIn, design.config.name(), cpr))
                .valueOrThrow();
          }
          return predict::BitLevelPredictor(design.config.width,
                                            options.predictor);
        }();
        if (predictor.width() != design.config.width) {
          throw core::StatusError(
              core::Status(core::StatusCode::InvalidInput,
                           "model bank width does not match design " +
                               design.config.name()));
        }
        if (options.modelIn.empty()) {
          auto trainWorkload =
              workloadFor(options.run, design.config.width, 1);
          predictor.fit(collector.collect(*trainWorkload, options.trainCycles));
          if (!options.modelOut.empty()) {
            core::throwIfError(predictor.saveFlat(
                bankPath(options.modelOut, design.config.name(), cpr)));
          }
        }
        const predict::PredictorEvaluation eval = predictor.evaluate(
            collector.collect(*testWorkload, options.testCycles));
        PredictionRow row;
        row.design = design.config.name();
        row.cprPercent = cpr;
        row.periodNs = period;
        row.abper = eval.abper;
        row.avpe = eval.avpe;
        row.trainCycles = options.trainCycles;
        row.testCycles = eval.cycles;
        return row;
      });
}

BitDistributionResult runBitDistribution(
    const circuits::SynthesizedDesign& design, double cprPercent,
    const RunOptions& options) {
  requireAtLeast("runBitDistribution", "cycles (--cycles)", options.cycles, 1);
  const double period =
      overclockedPeriodNs(options.signOffPeriodNs, cprPercent);
  auto workload = workloadFor(options, design.config.width, 0);
  TraceCollector collector(design, period);

  const int width = design.config.width;
  // Positions 0..width-1 are sum bits; position `width` is the carry-out
  // (the paper's Fig. 10 x-axis spans 0..32 for 32-bit adders).
  //
  // Structural series: the paper translates each independent speculative
  // fault's net arithmetic contribution into its equivalent bit position.
  // Timing series: timing errors "might span over various outputs", so they
  // are counted bitwise (y_silver vs y_gold). Both fold window by window.
  const core::IsaAdder behavioral(design.config);
  std::vector<std::uint64_t> structuralCounts(
      static_cast<std::size_t>(width + 1), 0);
  core::BitErrorDistribution timing(width + 1);
  std::vector<core::PathTrace> traces;
  collector.stream(
      *workload, options.cycles,
      [&](std::span<const predict::TraceRecord> window) {
        for (const predict::TraceRecord& rec : window) {
          (void)behavioral.addTraced(rec.a, rec.b, rec.carryIn, traces);
          for (const core::PathTrace& path : traces) {
            const int pos = core::equivalentBitPosition(path);
            if (pos >= 0 && pos <= width) {
              ++structuralCounts[static_cast<std::size_t>(pos)];
            }
          }
          timing.add(rec.silverValue(width), rec.goldValue(width));
        }
      });
  BitDistributionResult result;
  result.design = design.config.name();
  result.cprPercent = cprPercent;
  result.structuralRate.resize(static_cast<std::size_t>(width + 1));
  for (std::size_t i = 0; i < structuralCounts.size(); ++i) {
    result.structuralRate[i] =
        static_cast<double>(structuralCounts[i]) /
        static_cast<double>(options.cycles);
  }
  result.timingRate = timing.rates();
  return result;
}

}  // namespace oisa::experiments
