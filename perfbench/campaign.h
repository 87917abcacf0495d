// The benchmark's three paper-scale campaigns.
//
// Untraced, each runs through the public pipeline entry point its figure
// CLI uses (runErrorCombination, runPredictionEvaluation,
// runFaultErrorScan). Traced, each cell is rebuilt from the layers' public
// calls in the order the pipeline makes them, with an obs::ObsSpan around
// each call; the rebuilt rows must equal the pipeline's. A probe pass
// replays each cell's stimulus draws and behavioral adds on their own, so
// the work hidden inside TraceCollector::collect can be separated out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/synthesis.h"

namespace perfbench {

enum class Kind { Fig9, Fig7, Fault };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

/// fig9_char_1m, fig7_predict_10x, fault_scan_16m.
[[nodiscard]] const std::vector<WorkloadSpec>& workloadSpecs();
[[nodiscard]] const WorkloadSpec* findWorkload(const std::string& name);

/// Grid worker threads for every campaign (one closed-loop campaign per
/// process on a 4-vCPU host).
inline constexpr unsigned kThreads = 4;

/// The twelve paper designs, slack relaxation on (the CLIs' default).
[[nodiscard]] std::vector<oisa::circuits::SynthesizedDesign> synthesize();

/// Per-cell rows of one campaign, formatted as the figure CLI's CSV
/// formats them.
struct CampaignRows {
  std::vector<std::string> cellNames;
  std::vector<std::string> csv;     ///< empty when the cell threw
  std::vector<std::string> errors;  ///< the cell's error when it threw
  double simulatedCycles = 0.0;     ///< adder cycles the campaign simulated
};

/// Runs the campaign through the public pipeline entry point.
[[nodiscard]] CampaignRows runPipeline(
    const WorkloadSpec& spec,
    const std::vector<oisa::circuits::SynthesizedDesign>& designs,
    std::uint64_t seed);

/// Work counts the traced rebuild observes per cell (times come from the
/// spans). Zero where the workload does not run the layer.
struct CellCounts {
  std::uint64_t collectCycles = 0;   ///< cycles through TraceCollector::collect
  std::uint64_t traceBytes = 0;      ///< stimuli + TraceRecords materialized
  std::uint64_t packRows = 0;        ///< rows FeatureExtractor::packTrace packed
  std::uint64_t nodes = 0;           ///< flat-bank nodes grown by fit
  std::uint64_t classes = 0;         ///< collapsed fault classes
  std::uint64_t patterns = 0;        ///< coverage patterns applied
  std::uint64_t timedRuns = 0;       ///< timed fault-phase measurements
  std::uint64_t timedEvents = 0;     ///< lane-engine events in those runs
  std::uint64_t timedTransitions = 0;
};

struct TracedCampaign {
  CampaignRows rows;
  std::vector<CellCounts> cells;
};

/// Rebuilds every cell from the layers' public calls, each in a span:
/// experiments.cell around the cell and, inside it, netlist.compile,
/// experiments.collect, core.reduce, predict.pack, ml.fit,
/// predict.evaluate, fault.universe, fault.run_coverage and fault.timed.
[[nodiscard]] TracedCampaign runTraced(
    const WorkloadSpec& spec,
    const std::vector<oisa::circuits::SynthesizedDesign>& designs,
    std::uint64_t seed);

/// Work the probe pass replayed per campaign.
struct ProbeCounts {
  std::uint64_t stimuli = 0;         ///< Workload::next draws
  std::uint64_t behavioralAdds = 0;  ///< IsaAdder::add + exactAdd calls
  std::uint64_t checksum = 0;  ///< of the replayed outputs, so the work stays
                               ///< observable to the optimizer
};

/// Replays each cell's exact stimulus streams (span experiments.stimulus;
/// experiments.coverage_stimulus for the fault coverage patterns) and
/// behavioral gold/diamond adds (span core.behavioral), inside a
/// probe.cell span. `traced` supplies the fault cells' run counts.
[[nodiscard]] ProbeCounts runProbes(
    const WorkloadSpec& spec,
    const std::vector<oisa::circuits::SynthesizedDesign>& designs,
    std::uint64_t seed, const TracedCampaign& traced);

}  // namespace perfbench
