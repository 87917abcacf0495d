#include "experiments/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/bit_distribution.h"
#include "core/fault_inject.h"
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

// --- checkpoint payload codecs -----------------------------------------
// Doubles travel as bit patterns (PayloadWriter::f64), so a resumed row
// is byte-for-byte the row the interrupted run computed.

std::string encodeCombinationRow(const CombinationRow& row) {
  PayloadWriter w;
  w.str(row.design);
  w.f64(row.cprPercent);
  w.f64(row.periodNs);
  w.f64(row.rmsRelStruct);
  w.f64(row.rmsRelTiming);
  w.f64(row.rmsRelJoint);
  w.f64(row.meanAbsJointArith);
  w.f64(row.structErrorRate);
  w.f64(row.timingErrorRate);
  w.u64(row.cycles);
  return w.take();
}

std::optional<CombinationRow> decodeCombinationRow(
    const std::string& payload) {
  PayloadReader r{payload};
  CombinationRow row;
  row.design = r.str();
  row.cprPercent = r.f64();
  row.periodNs = r.f64();
  row.rmsRelStruct = r.f64();
  row.rmsRelTiming = r.f64();
  row.rmsRelJoint = r.f64();
  row.meanAbsJointArith = r.f64();
  row.structErrorRate = r.f64();
  row.timingErrorRate = r.f64();
  row.cycles = r.u64();
  if (!r.ok() || !r.atEnd()) return std::nullopt;
  return row;
}

std::string encodePredictionRow(const PredictionRow& row) {
  PayloadWriter w;
  w.str(row.design);
  w.f64(row.cprPercent);
  w.f64(row.periodNs);
  w.f64(row.abper);
  w.f64(row.avpe);
  w.u64(row.trainCycles);
  w.u64(row.testCycles);
  return w.take();
}

std::optional<PredictionRow> decodePredictionRow(const std::string& payload) {
  PayloadReader r{payload};
  PredictionRow row;
  row.design = r.str();
  row.cprPercent = r.f64();
  row.periodNs = r.f64();
  row.abper = r.f64();
  row.avpe = r.f64();
  row.trainCycles = r.u64();
  row.testCycles = r.u64();
  if (!r.ok() || !r.atEnd()) return std::nullopt;
  return row;
}

/// The --progress report: a background thread prints one stderr line
/// (cells done/total, retries, elapsed, ETA) every ~2 s while the grid
/// runs, and the destructor prints the final line. Inert when disabled.
class CampaignMonitor {
 public:
  CampaignMonitor(std::size_t totalCells, bool enabled)
      : total_(totalCells), start_(std::chrono::steady_clock::now()) {
    if (enabled) ticker_ = std::thread([this] { tickerLoop(); });
  }

  ~CampaignMonitor() {
    if (!ticker_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stopCv_.notify_all();
    ticker_.join();
    printProgress();  // final line: done == total (or error)
  }

  CampaignMonitor(const CampaignMonitor&) = delete;
  CampaignMonitor& operator=(const CampaignMonitor&) = delete;

  void cellDone() noexcept { done_.fetch_add(1, std::memory_order_relaxed); }
  /// Wired into RunPolicy::retryCounter by the grid loop.
  [[nodiscard]] std::atomic<std::uint64_t>* retryCounter() noexcept {
    return &retries_;
  }

 private:
  void tickerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopCv_.wait_for(lock, std::chrono::seconds(2),
                             [this] { return stop_; })) {
      printProgress();
    }
  }

  void printProgress() const {
    const std::uint64_t done = done_.load(std::memory_order_relaxed);
    const std::uint64_t retries = retries_.load(std::memory_order_relaxed);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    std::string line = "progress: " + std::to_string(done) + "/" +
                       std::to_string(total_) + " cells";
    if (retries > 0) line += ", " + std::to_string(retries) + " retries";
    char timing[64];
    std::snprintf(timing, sizeof timing, ", elapsed %.1fs", elapsed);
    line += timing;
    if (done > 0 && done < total_) {
      const double eta = elapsed / static_cast<double>(done) *
                         static_cast<double>(total_ - done);
      std::snprintf(timing, sizeof timing, ", eta %.1fs", eta);
      line += timing;
    }
    line += "\n";
    // One write, so the line never interleaves with other stderr output.
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }

  std::size_t total_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::mutex mutex_;
  std::condition_variable stopCv_;
  bool stop_ = false;
  std::thread ticker_;
};

}  // namespace

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
  // Never more workers than cells; results are bit-identical at any
  // thread count because every cell owns its seeded workload and
  // simulator.
  unsigned workers = options.threads == 0
                         ? std::thread::hardware_concurrency()
                         : options.threads;
  if (workers == 0) workers = 1;
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(count, 1)));
  GridScheduler pool(workers);
  CancelToken cancel;
  RunPolicy policy;
  policy.maxAttempts = std::max(options.cellAttempts, 1u);
  policy.retryBackoff = std::chrono::milliseconds(options.retryBackoffMs);
  if (options.deadlineSeconds > 0.0) {
    cancel.setTimeout(std::chrono::nanoseconds(
        static_cast<std::int64_t>(options.deadlineSeconds * 1e9)));
    policy.cancel = &cancel;
  }
  CampaignMonitor monitor(count, options.progress);
  policy.retryCounter = monitor.retryCounter();
  const auto wrapped = [&](std::size_t cell) {
    task(cell);
    monitor.cellDone();
  };
  const obs::ObsSpan span("campaign", "grid", "cells", count);
  pool.run(count, wrapped, policy);
}

std::vector<CombinationRow> runErrorCombination(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const RunOptions& options) {
  requireAtLeast("runErrorCombination", "cycles (--cycles)", options.cycles,
                 1);
  const std::size_t points = designs.size() * cprPercents.size();
  std::vector<CombinationRow> rows(points);
  CampaignCheckpoint ckpt(
      options.checkpoint,
      baseFingerprint("runErrorCombination", designs, cprPercents, options)
          .digest(),
      points);
  const auto sweep = [&](std::size_t point) {
    const circuits::SynthesizedDesign& design =
        designs[point / cprPercents.size()];
    const double cpr = cprPercents[point % cprPercents.size()];
    if (const auto payload = ckpt.tryLoad(point)) {
      if (auto row = decodeCombinationRow(*payload)) {
        rows[point] = *std::move(row);
        return;
      }
    }
    // Injection site sits *after* the resume fast path, so a plan like
    // "grid.cell:*" makes any recomputation fail — resuming a complete
    // checkpoint under it proves cells were loaded, not recomputed.
    core::fault_inject::maybeThrow(core::fault_inject::kGridCell,
                                   core::StatusCode::IoError);
    const double period = overclockedPeriodNs(options.signOffPeriodNs, cpr);
    // Same workload seed across designs and CPRs so every design sees the
    // same stimulus, as in the paper's common random sample. The
    // collector runs it window by window (records bit-identical to the
    // sequential path), and each window folds straight into the
    // combination in record order, so the cell holds one window however
    // many cycles it runs.
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
    ckpt.commit(point, encodeCombinationRow(row));
    rows[point] = std::move(row);
  };
  try {
    runCampaignGrid(points, options, sweep);
  } catch (...) {
    (void)ckpt.finish();  // persist the surviving cells before surfacing
    throw;
  }
  (void)ckpt.finish();
  return rows;
}

std::vector<PredictionRow> runPredictionEvaluation(
    const std::vector<circuits::SynthesizedDesign>& designs,
    std::span<const double> cprPercents, const PredictionOptions& options) {
  requireAtLeast("runPredictionEvaluation", "testCycles (--test-cycles)",
                 options.testCycles, 2);
  if (options.modelIn.empty()) {
    requireAtLeast("runPredictionEvaluation", "trainCycles (--train-cycles)",
                   options.trainCycles, 2);
  }
  const std::size_t points = designs.size() * cprPercents.size();
  std::vector<PredictionRow> rows(points);
  CampaignFingerprint fp = baseFingerprint("runPredictionEvaluation", designs,
                                           cprPercents, options.run);
  fp.mix(options.trainCycles);
  fp.mix(options.testCycles);
  fp.mix(static_cast<std::uint64_t>(options.predictor.model));
  fp.mix(std::uint64_t{options.predictor.includeOutputBits ? 1u : 0u});
  fp.mix(options.predictor.seed);
  fp.mix(static_cast<std::uint64_t>(options.predictor.forest.treeCount));
  fp.mix(static_cast<std::uint64_t>(options.predictor.forest.tree.maxDepth));
  CampaignCheckpoint ckpt(options.run.checkpoint, fp.digest(), points);
  const auto sweep = [&](std::size_t point) {
    const circuits::SynthesizedDesign& design =
        designs[point / cprPercents.size()];
    const double cpr = cprPercents[point % cprPercents.size()];
    if (const auto payload = ckpt.tryLoad(point)) {
      if (auto row = decodePredictionRow(*payload)) {
        rows[point] = *std::move(row);
        return;
      }
    }
    core::fault_inject::maybeThrow(core::fault_inject::kGridCell,
                                   core::StatusCode::IoError);
    const double period =
        overclockedPeriodNs(options.run.signOffPeriodNs, cpr);
    // Train and test stimuli come from differently-seeded streams. One
    // TraceCollector per point shares its unrolled netlist and batch
    // evaluator across both collections and owns each trace's single
    // packing pass (the block shift-and-transpose of packTrace), so the
    // predictor consumes packed feature/label words directly — popcount
    // training and 64-lane batched evaluation with no per-record
    // re-extraction here. Results are bit-identical to the sequential
    // per-trace pipeline (differential gates: bench/micro_lane_sim.cpp,
    // bench/micro_forest.cpp).
    TraceCollector collector(design, period);
    auto testWorkload = workloadFor(options.run, design.config.width, 2);
    // modelIn short-circuits training entirely: the cell's bank mmaps in
    // (envelope v2) and only the held-out stimulus is collected. Both
    // arms evaluate through the same flat-bank batched sweep, so the
    // rows — and any CSV written from them — are byte-identical.
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
      throw core::StatusError(core::Status(
          core::StatusCode::InvalidInput,
          "model bank width does not match design " + design.config.name()));
    }
    if (options.modelIn.empty()) {
      auto trainWorkload = workloadFor(options.run, design.config.width, 1);
      const CollectedTrace train = collector.collectPacked(
          *trainWorkload, options.trainCycles, predictor.extractor());
      predictor.fit(train.packed);
      if (!options.modelOut.empty()) {
        core::throwIfError(predictor.saveFlat(
            bankPath(options.modelOut, design.config.name(), cpr)));
      }
    }
    const CollectedTrace test = collector.collectPacked(
        *testWorkload, options.testCycles, predictor.extractor());
    const predict::PredictorEvaluation eval =
        predictor.evaluate(test.trace, test.packed);

    PredictionRow row;
    row.design = design.config.name();
    row.cprPercent = cpr;
    row.periodNs = period;
    row.abper = eval.abper;
    row.avpe = eval.avpe;
    row.trainCycles = options.trainCycles;
    row.testCycles = eval.cycles;
    ckpt.commit(point, encodePredictionRow(row));
    rows[point] = std::move(row);
  };
  try {
    runCampaignGrid(points, options.run, sweep);
  } catch (...) {
    (void)ckpt.finish();
    throw;
  }
  (void)ckpt.finish();
  return rows;
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
          const std::uint64_t coutBit = std::uint64_t{1} << width;
          const std::uint64_t goldWord =
              rec.gold | (rec.goldCout ? coutBit : 0);
          const std::uint64_t silverWord =
              rec.silver | (rec.silverCout ? coutBit : 0);
          timing.add(silverWord, goldWord);
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
