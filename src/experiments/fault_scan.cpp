#include "experiments/fault_scan.h"

#include <algorithm>
#include <optional>

#include "core/error_model.h"
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
/// defect held at its stuck value and returns the relative-E_joint RMS of
/// the sampled outputs against the exact adder. The run is a 64-stream
/// collector run (stream l settles on draw l, then measures draw
/// 64 + 64b + l at its cycle b) over the workload seeded one past the
/// coverage phase's. Its records fold in draw order at any engine width,
/// so the order-sensitive floating-point RMS is **byte-identical** at
/// every width. Throws core::StatusError(InvalidInput) for a design off
/// the adder port convention.
double measureTimedRelJoint(const circuits::SynthesizedDesign& design,
                            double periodNs,
                            std::optional<fault::Fault> defect,
                            const FaultScanOptions& options) {
  constexpr std::size_t kStreams = 64;
  TraceCollector collector(design, periodNs, 0, kStreams, defect);
  const int width = design.config.width;
  const auto workload =
      makeWorkload(options.run.workload, width, options.run.seed + 1);
  return combineErrors(collector, *workload, options.timedCycles, width)
      .relJoint()
      .rms();
}

/// The checkpoint row codec: a row's fields in payload order.
constexpr auto faultScanFields = [](FaultScanRow& row, auto& io) {
  io(row.design, row.universeFaults, row.collapsedClasses,
     row.detectedClasses, row.coveragePercent, row.patterns, row.cprPercent,
     row.periodNs, row.rmsRelJointHealthy, row.rmsRelJointFaulty,
     row.eJointShift, row.worstRelJointFaulty, row.timedFaultsMeasured);
};

}  // namespace

std::vector<FaultScanRow> runFaultErrorScan(
    const std::vector<circuits::SynthesizedDesign>& designs,
    const FaultScanOptions& options) {
  requireAtLeast("runFaultErrorScan", "cycles (--cycles)", options.run.cycles,
                 1);
  requireAtLeast("runFaultErrorScan", "timedCycles (--timed-cycles)",
                 options.timedCycles, 1);
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
  const auto scanCell = [&](std::size_t d) {
    const circuits::SynthesizedDesign& design = designs[d];
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
        measureTimedRelJoint(design, row.periodNs, std::nullopt, options);
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
    std::vector<Stimulus> stims(engineLanes);
    std::uint64_t remaining = coverage.patterns;
    // Wide engines consume the same workload stream the 64-lane reference
    // would: pattern p of a block is draw p of its stream position, packed
    // into bit p%64 of sub-word p/64, so CoverageResult is
    // width-independent.
    const fault::PatternBlockSource source =
        [&](std::span<std::uint64_t> inputWords) -> std::size_t {
      if (remaining == 0) return 0;
      const auto count = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, engineLanes));
      remaining -= count;
      workload->fill(std::span(stims.data(), count));
      // Only a partial last block leaves sub-words unpacked: they read 0.
      if (count < engineLanes) {
        std::fill(inputWords.begin(), inputWords.end(), 0);
      }
      packStimuli(std::span(stims.data(), count), width, inputWords,
                  engine->wordsPerNet());
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
      const double rms =
          measureTimedRelJoint(design, row.periodNs, f, options);
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
    return row;
  };
  return runCheckpointedGrid<FaultScanRow>(designs.size(), options.run,
                                           fp.digest(), faultScanFields,
                                           scanCell);
}

}  // namespace oisa::experiments
