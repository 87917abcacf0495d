#include "experiments/fault_scan.h"

#include <algorithm>
#include <array>
#include <optional>

#include "core/error_model.h"
#include "core/fault_inject.h"
#include "experiments/grid_scheduler.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp.h"
#include "fault/timed_fault.h"
#include "netlist/compiled_netlist.h"

namespace oisa::experiments {

namespace {

/// Runs `options.timedCycles` overclocked cycles with an optional stem
/// defect clamped in and returns the relative-E_joint RMS of the sampled
/// outputs against the exact adder. The run is a 64-stream collector run
/// (stream l settles on draw l, then measures draw 64 + 64b + l at its
/// cycle b) over the workload seeded one past the coverage phase's. Its
/// records fold in draw order at any engine width, so the order-sensitive
/// floating-point RMS is **byte-identical** at every width. Throws
/// core::StatusError(InvalidInput) for a design off the adder port
/// convention.
double measureTimedRelJoint(const circuits::SynthesizedDesign& design,
                            double periodNs, const fault::Fault* defect,
                            const FaultScanOptions& options) {
  constexpr std::size_t kStreams = 64;
  TraceCollector collector(design, periodNs, 0, kStreams);
  if (defect != nullptr) {
    fault::injectStuckAt(collector.simulator(), *defect);
  }
  const int width = design.config.width;
  const auto workload =
      makeWorkload(options.run.workload, width, options.run.seed + 1);
  return combineErrors(collector, *workload, options.timedCycles, width)
      .relJoint()
      .rms();
}

std::string encodeFaultScanRow(const FaultScanRow& row) {
  PayloadWriter w;
  w.str(row.design);
  w.u64(row.universeFaults);
  w.u64(row.collapsedClasses);
  w.u64(row.detectedClasses);
  w.f64(row.coveragePercent);
  w.u64(row.patterns);
  w.f64(row.cprPercent);
  w.f64(row.periodNs);
  w.f64(row.rmsRelJointHealthy);
  w.f64(row.rmsRelJointFaulty);
  w.f64(row.eJointShift);
  w.f64(row.worstRelJointFaulty);
  w.u64(row.timedFaultsMeasured);
  return w.take();
}

std::optional<FaultScanRow> decodeFaultScanRow(const std::string& payload) {
  PayloadReader r{payload};
  FaultScanRow row;
  row.design = r.str();
  row.universeFaults = r.u64();
  row.collapsedClasses = r.u64();
  row.detectedClasses = r.u64();
  row.coveragePercent = r.f64();
  row.patterns = r.u64();
  row.cprPercent = r.f64();
  row.periodNs = r.f64();
  row.rmsRelJointHealthy = r.f64();
  row.rmsRelJointFaulty = r.f64();
  row.eJointShift = r.f64();
  row.worstRelJointFaulty = r.f64();
  row.timedFaultsMeasured = r.u64();
  if (!r.ok() || !r.atEnd()) return std::nullopt;
  return row;
}

}  // namespace

std::vector<FaultScanRow> runFaultErrorScan(
    const std::vector<circuits::SynthesizedDesign>& designs,
    const FaultScanOptions& options) {
  std::vector<FaultScanRow> rows(designs.size());
  CampaignFingerprint fp("runFaultErrorScan");
  fp.mix(static_cast<std::uint64_t>(designs.size()));
  for (const auto& design : designs) {
    fp.mix(design.config.name());
    fp.mix(static_cast<std::uint64_t>(design.netlist.gateCount()));
  }
  fp.mix(options.run.cycles);
  fp.mix(options.run.seed);
  fp.mix(options.run.workload);
  fp.mix(options.run.signOffPeriodNs);
  fp.mix(options.cprPercent);
  fp.mix(options.timedCycles);
  fp.mix(static_cast<std::uint64_t>(options.timedFaults));
  CampaignCheckpoint ckpt(options.run.checkpoint, fp.digest(),
                          designs.size());
  const auto scanCell = [&](std::size_t d) {
    const circuits::SynthesizedDesign& design = designs[d];
    if (const auto payload = ckpt.tryLoad(d)) {
      if (auto row = decodeFaultScanRow(*payload)) {
        rows[d] = *std::move(row);
        return;
      }
    }
    core::fault_inject::maybeThrow(core::fault_inject::kGridCell,
                                   core::StatusCode::IoError);
    FaultScanRow row;
    row.design = design.config.name();
    row.cprPercent = options.cprPercent;
    row.periodNs =
        overclockedPeriodNs(options.run.signOffPeriodNs, options.cprPercent);
    // The timed phase's healthy baseline runs first: its collector
    // rejects a design off the adder port convention (e.g. an imported
    // benchmark netlist) with InvalidInput before the coverage phase packs
    // stimuli that assume it.
    row.rmsRelJointHealthy =
        measureTimedRelJoint(design, row.periodNs, nullptr, options);
    const int width = design.config.width;
    const auto compiled = netlist::CompiledNetlist::compile(design.netlist);

    // Phase 1: PPSFP coverage under the experiment workload. Every design
    // sees the same stimulus stream (shared seed), as in the paper's
    // common random sample.
    fault::FaultUniverse universe(compiled);
    const auto engine = fault::makePpsfpEngine(compiled);
    fault::CoverageOptions coverage;
    coverage.patterns = options.run.cycles;
    const auto workload =
        makeWorkload(options.run.workload, width, options.run.seed);
    const std::size_t engineLanes = engine->lanes();
    const std::size_t kW = engine->wordsPerNet();
    std::array<Stimulus, 64> stims{};
    std::vector<std::uint64_t> subWords(compiled->inputNets().size(), 0);
    std::uint64_t remaining = coverage.patterns;
    // Wide engines consume the same workload stream the 64-lane reference
    // would: draws stay sub-block-major (64 stimuli, then the next
    // sub-word), so pattern p of a block is always draw p of its stream
    // position and CoverageResult is width-independent.
    const fault::PatternBlockSource source =
        [&](std::span<std::uint64_t> inputWords) -> std::size_t {
      if (remaining == 0) return 0;
      const auto count = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, engineLanes));
      remaining -= count;
      std::fill(inputWords.begin(), inputWords.end(), 0);
      for (std::size_t packed = 0, j = 0; packed < count; ++j) {
        const std::size_t sub = std::min<std::size_t>(count - packed, 64);
        for (std::size_t lane = 0; lane < sub; ++lane) {
          stims[lane] = workload->next();
        }
        packStimulusBlock(std::span(stims.data(), sub), width, subWords);
        for (std::size_t i = 0; i < subWords.size(); ++i) {
          inputWords[i * kW + j] = subWords[i];
        }
        packed += sub;
      }
      return count;
    };
    const fault::CoverageResult cov =
        fault::runCoverage(universe, *engine, coverage, source);
    row.universeFaults = cov.universeFaults;
    row.collapsedClasses = cov.collapsedClasses;
    row.detectedClasses = cov.detectedClasses;
    row.coveragePercent = cov.coverage() * 100.0;
    row.patterns = cov.patternsApplied;

    // Phase 2: timed defective runs on a deterministic sample of the
    // detected stem classes, against the healthy baseline.
    std::vector<fault::Fault> detectedStems;
    const auto classes = universe.collapsed();
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (cov.detected[ci] != 0) detectedStems.push_back(classes[ci]);
    }
    const std::vector<fault::Fault> sample =
        fault::selectTimedFaults(detectedStems, options.timedFaults);
    double sum = 0.0;
    for (const fault::Fault& f : sample) {
      const double rms = measureTimedRelJoint(design, row.periodNs, &f,
                                              options);
      sum += rms;
      row.worstRelJointFaulty = std::max(row.worstRelJointFaulty, rms);
    }
    row.timedFaultsMeasured = sample.size();
    // No detected stem faults -> no defective measurement: report a zero
    // shift rather than 0 - healthy (which would read as a defect
    // improving the error).
    if (!sample.empty()) {
      row.rmsRelJointFaulty = sum / static_cast<double>(sample.size());
      row.eJointShift = row.rmsRelJointFaulty - row.rmsRelJointHealthy;
    }
    ckpt.commit(d, encodeFaultScanRow(row));
    rows[d] = std::move(row);
  };
  try {
    runCampaignGrid(designs.size(), options.run, scanCell);
  } catch (...) {
    (void)ckpt.finish();  // persist the surviving designs' rows
    throw;
  }
  (void)ckpt.finish();
  return rows;
}

}  // namespace oisa::experiments
