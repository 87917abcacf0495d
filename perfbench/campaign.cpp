#include "campaign.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "core/error_model.h"
#include "core/isa_adder.h"
#include "experiments/fault_scan.h"
#include "experiments/grid_scheduler.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "fault/coverage.h"
#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"
#include "fault/timed_fault.h"
#include "netlist/bitops.h"
#include "netlist/compiled_netlist.h"
#include "obs/span.h"
#include "predict/bit_predictor.h"
#include "timing/cell_library.h"
#include "timing/lane_dispatch.h"
#include "timing/sta.h"

namespace perfbench {

namespace ex = oisa::experiments;
using oisa::circuits::SynthesizedDesign;
using oisa::obs::ObsSpan;

namespace {

// Workload scale. README.md gives the reason for each.
constexpr std::uint64_t kFig9Cycles = 1'000'000;
constexpr std::uint64_t kFig7TrainCycles = 60'000;
constexpr std::uint64_t kFig7TestCycles = 30'000;
constexpr std::size_t kFig7Trees = 10;
constexpr int kFig7Depth = 10;
constexpr std::uint64_t kFaultPatterns = std::uint64_t{1} << 24;
constexpr std::uint64_t kFaultTimedCycles = 65'536;
constexpr std::size_t kFaultTimedFaults = 8;
constexpr double kFaultCpr = 15.0;
const char* const kStimulus = "uniform";

const std::vector<double>& paperCprs() {
  static const std::vector<double> cprs = {5.0, 10.0, 15.0};
  return cprs;
}

double signOffNs() { return ex::RunOptions{}.signOffPeriodNs; }

ex::RunOptions runOptions(std::uint64_t seed, std::uint64_t cycles) {
  ex::RunOptions run;
  run.cycles = cycles;
  run.seed = seed;
  run.workload = kStimulus;
  run.threads = kThreads;
  return run;
}

ex::PredictionOptions predictionOptions(std::uint64_t seed) {
  ex::PredictionOptions options;
  options.run = runOptions(seed, ex::RunOptions{}.cycles);
  options.trainCycles = kFig7TrainCycles;
  options.testCycles = kFig7TestCycles;
  options.predictor.forest.treeCount = kFig7Trees;
  options.predictor.forest.tree.maxDepth = kFig7Depth;
  return options;
}

ex::FaultScanOptions faultOptions(std::uint64_t seed) {
  ex::FaultScanOptions options;
  options.run = runOptions(seed, kFaultPatterns);
  options.cprPercent = kFaultCpr;
  options.timedCycles = kFaultTimedCycles;
  options.timedFaults = kFaultTimedFaults;
  return options;
}

std::string joinCsv(std::initializer_list<std::string> cells) {
  std::string out;
  for (const std::string& cell : cells) {
    if (!out.empty()) out += ',';
    out += cell;
  }
  return out;
}

// Rows as the figure CLIs format them. fig9_error_combination's CSV
// columns; fig7_abper / fig8_avpe print ABPER and AVPE as
// formatSci(displayFloor(x), 3), joined here with the cell's identity.
std::string csvRow(const ex::CombinationRow& row) {
  return joinCsv({row.design, ex::formatFixed(row.cprPercent, 1),
                  ex::formatFixed(row.periodNs, 4),
                  ex::formatSci(row.rmsRelStruct, 6),
                  ex::formatSci(row.rmsRelTiming, 6),
                  ex::formatSci(row.rmsRelJoint, 6)});
}

std::string csvRow(const ex::PredictionRow& row) {
  return joinCsv({row.design, ex::formatFixed(row.cprPercent, 1),
                  ex::formatFixed(row.periodNs, 4),
                  ex::formatSci(ex::displayFloor(row.abper), 3),
                  ex::formatSci(ex::displayFloor(row.avpe), 3),
                  std::to_string(row.trainCycles),
                  std::to_string(row.testCycles)});
}

std::string csvRow(const ex::FaultScanRow& row) {
  return joinCsv({row.design, std::to_string(row.universeFaults),
                  std::to_string(row.collapsedClasses),
                  std::to_string(row.detectedClasses),
                  ex::formatFixed(row.coveragePercent, 3),
                  std::to_string(row.patterns),
                  ex::formatFixed(row.cprPercent, 1),
                  ex::formatFixed(row.periodNs, 4),
                  ex::formatSci(row.rmsRelJointHealthy, 6),
                  ex::formatSci(row.rmsRelJointFaulty, 6),
                  ex::formatSci(row.eJointShift, 6),
                  ex::formatSci(row.worstRelJointFaulty, 6),
                  std::to_string(row.timedFaultsMeasured)});
}

double simulatedCycles(const ex::CombinationRow& row) {
  return static_cast<double>(row.cycles);
}
double simulatedCycles(const ex::PredictionRow& row) {
  return static_cast<double>(row.trainCycles + row.testCycles);
}
double simulatedCycles(const ex::FaultScanRow& row) {
  return static_cast<double>(row.patterns +
                             kFaultTimedCycles * (1 + row.timedFaultsMeasured));
}

std::size_t cellCount(const WorkloadSpec& spec,
                      const std::vector<SynthesizedDesign>& designs) {
  return spec.kind == Kind::Fault ? designs.size()
                                  : designs.size() * paperCprs().size();
}

std::vector<std::string> cellNames(
    const WorkloadSpec& spec, const std::vector<SynthesizedDesign>& designs) {
  std::vector<std::string> names;
  for (std::size_t cell = 0; cell < cellCount(spec, designs); ++cell) {
    if (spec.kind == Kind::Fault) {
      names.push_back(designs[cell].config.name());
    } else {
      names.push_back(designs[cell / paperCprs().size()].config.name() + "@" +
                      ex::formatFixed(paperCprs()[cell % paperCprs().size()], 0) +
                      "%");
    }
  }
  return names;
}

/// Runs `campaign` (returning one Row per cell) and formats its rows; a
/// throwing cell, or a campaign that throws before any row, leaves the
/// cells' errors set instead.
template <typename Campaign>
CampaignRows formatRows(std::vector<std::string> names, Campaign&& campaign) {
  CampaignRows out;
  const std::size_t cells = names.size();
  out.cellNames = std::move(names);
  out.csv.assign(cells, "");
  out.errors.assign(cells, "");
  try {
    const auto rows = campaign();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      if (cell >= rows.size() || rows[cell].design.empty()) {
        out.errors[cell] = "no row produced";
        continue;
      }
      out.csv[cell] = csvRow(rows[cell]);
      out.simulatedCycles += simulatedCycles(rows[cell]);
    }
  } catch (const ex::GridError& e) {
    for (const ex::CellFailure& f : e.failures()) {
      if (f.cell < cells) out.errors[f.cell] = f.status.toString();
    }
    for (std::string& error : out.errors) {
      if (error.empty()) error = std::string("campaign aborted: ") + e.what();
    }
  } catch (const std::exception& e) {
    for (std::string& error : out.errors) error = e.what();
  }
  return out;
}

// --- traced rebuild --------------------------------------------------------

ex::CombinationRow tracedFig9Cell(const SynthesizedDesign& design, double cpr,
                                  std::uint64_t seed, CellCounts& counts) {
  const int width = design.config.width;
  const double period = ex::overclockedPeriodNs(signOffNs(), cpr);
  auto workload = ex::makeWorkload(kStimulus, width, seed);
  std::optional<ex::TraceCollector> collector;
  {
    const ObsSpan span("netlist.compile", "bench");
    collector.emplace(design, period);
  }
  oisa::predict::Trace trace;
  {
    const ObsSpan span("experiments.collect", "bench");
    trace = collector->collect(*workload, kFig9Cycles);
  }
  counts.collectCycles += kFig9Cycles;
  counts.traceBytes += (kFig9Cycles + 1) * sizeof(ex::Stimulus) +
                       kFig9Cycles * sizeof(oisa::predict::TraceRecord);
  oisa::core::ErrorCombination combo;
  {
    const ObsSpan span("core.reduce", "bench");
    for (const oisa::predict::TraceRecord& rec : trace) {
      combo.add(oisa::core::OutputTriple{rec.diamondValue(width),
                                         rec.goldValue(width),
                                         rec.silverValue(width)});
    }
  }
  ex::CombinationRow row;
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
}

ex::PredictionRow tracedFig7Cell(const SynthesizedDesign& design, double cpr,
                                 std::uint64_t seed, CellCounts& counts) {
  const int width = design.config.width;
  const double period = ex::overclockedPeriodNs(signOffNs(), cpr);
  std::optional<ex::TraceCollector> collector;
  {
    const ObsSpan span("netlist.compile", "bench");
    collector.emplace(design, period);
  }
  auto testWorkload = ex::makeWorkload(kStimulus, width, seed + 2);
  oisa::predict::BitLevelPredictor predictor(
      width, predictionOptions(seed).predictor);
  auto trainWorkload = ex::makeWorkload(kStimulus, width, seed + 1);
  const auto collectAndPack = [&](ex::Workload& workload,
                                  std::uint64_t cycles) {
    ex::CollectedTrace out;
    {
      const ObsSpan span("experiments.collect", "bench");
      out.trace = collector->collect(workload, cycles);
    }
    {
      const ObsSpan span("predict.pack", "bench");
      out.packed = predictor.extractor().packTrace(out.trace);
    }
    counts.collectCycles += cycles;
    counts.traceBytes += (cycles + 1) * sizeof(ex::Stimulus) +
                         cycles * sizeof(oisa::predict::TraceRecord);
    counts.packRows += out.packed.rowCount;
    return out;
  };
  const ex::CollectedTrace train =
      collectAndPack(*trainWorkload, kFig7TrainCycles);
  {
    const ObsSpan span("ml.fit", "bench");
    predictor.fit(train.packed);
  }
  counts.nodes += predictor.flatView().nodeCount();
  const ex::CollectedTrace test = collectAndPack(*testWorkload, kFig7TestCycles);
  oisa::predict::PredictorEvaluation eval;
  {
    const ObsSpan span("predict.evaluate", "bench");
    eval = predictor.evaluate(test.trace, test.packed);
  }
  ex::PredictionRow row;
  row.design = design.config.name();
  row.cprPercent = cpr;
  row.periodNs = period;
  row.abper = eval.abper;
  row.avpe = eval.avpe;
  row.trainCycles = kFig7TrainCycles;
  row.testCycles = eval.cycles;
  return row;
}

/// Smallest W with (W + 2) * period > critical path: the cycles replayed
/// ahead of a mid-stream chunk (the TraceCollector warm-up bound).
int timedWarmUpCycles(const SynthesizedDesign& design,
                      oisa::timing::TimePs periodPs) {
  const oisa::timing::TimePs d =
      oisa::timing::quantizeSpanPs(
          oisa::timing::criticalDelayNs(design.netlist, design.delays)) +
      1;
  int warmUp = 0;
  while ((static_cast<oisa::timing::TimePs>(warmUp) + 2) * periodPs <= d) {
    ++warmUp;
  }
  return warmUp;
}

struct TimedMeasurement {
  double relJointRms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t transitions = 0;
};

/// The fault scan's timed phase, made from public calls: `timedCycles`
/// overclocked cycles with an optional stem defect clamped in, on the
/// 64-stream reference schedule (stream l settles on draw l, then
/// measures draws 64 + 64b + l), chunked over a wider engine exactly as
/// runFaultErrorScan does, folded in reference draw order.
TimedMeasurement measureTimed(
    const std::shared_ptr<const oisa::netlist::CompiledNetlist>& compiled,
    const SynthesizedDesign& design, double periodNs,
    const oisa::fault::Fault* defect, std::uint64_t timedCycles,
    std::uint64_t seed) {
  const int width = design.config.width;
  const oisa::core::IsaAdder behavioral(design.config);
  const auto sampler =
      oisa::timing::makeLaneSampler(compiled, design.delays, periodNs);
  if (defect != nullptr) {
    oisa::fault::injectStuckAt(sampler->simulator(), *defect);
  }
  const auto workload = ex::makeWorkload(kStimulus, width, seed);
  std::array<ex::Stimulus, 64> settle{};
  for (auto& s : settle) s = workload->next();
  std::vector<ex::Stimulus> measured(static_cast<std::size_t>(timedCycles));
  for (auto& s : measured) s = workload->next();
  const auto streamLen = [&](std::size_t l) {
    return static_cast<std::size_t>((timedCycles + 63 - l) / 64);
  };
  const auto streamStim = [&](std::size_t l, std::size_t idx) {
    return idx == 0 ? settle[l] : measured[(idx - 1) * 64 + l];
  };

  const std::size_t kW = sampler->wordsPerNet();
  const auto wu = static_cast<std::size_t>(
      timedWarmUpCycles(design, sampler->periodPs()));
  std::vector<std::size_t> start(64 * kW);
  std::vector<std::size_t> len(64 * kW);
  std::vector<std::size_t> warm(64 * kW);
  std::size_t steps = 0;
  for (std::size_t l = 0; l < 64; ++l) {
    const std::size_t n = streamLen(l);
    for (std::size_t j = 0, c = 0; j < kW; ++j) {
      const std::size_t lane = 64 * j + l;
      start[lane] = c;
      len[lane] = n / kW + (j < n % kW ? 1 : 0);
      c += len[lane];
      warm[lane] = std::min(wu, start[lane]);
      steps = std::max(steps, warm[lane] + len[lane]);
    }
  }
  std::vector<std::size_t> idle(64 * kW);
  for (std::size_t lane = 0; lane < 64 * kW; ++lane) {
    idle[lane] = steps - warm[lane] - len[lane];
  }

  const std::size_t inputCount = compiled->inputNets().size();
  std::vector<std::uint64_t> inWords(inputCount * kW, 0);
  std::vector<std::uint64_t> subWords(inputCount, 0);
  std::vector<std::uint64_t> outWords;
  std::vector<ex::Stimulus> cur(64 * kW);
  std::array<ex::Stimulus, 64> subStims{};
  std::array<std::uint64_t, 64> sM{};
  std::vector<std::uint64_t> silver(measured.size(), 0);
  const auto assembleInputs = [&] {
    for (std::size_t j = 0; j < kW; ++j) {
      std::copy_n(cur.begin() + static_cast<std::ptrdiff_t>(64 * j), 64,
                  subStims.begin());
      ex::packStimulusBlock(subStims, width, subWords);
      for (std::size_t i = 0; i < inputCount; ++i) {
        inWords[i * kW + j] = subWords[i];
      }
    }
  };
  for (std::size_t lane = 0; lane < 64 * kW; ++lane) {
    cur[lane] = streamStim(lane % 64, start[lane] - warm[lane]);
  }
  assembleInputs();
  const std::uint64_t events0 = sampler->simulator().eventsProcessed();
  const std::uint64_t transitions0 =
      sampler->simulator().laneTransitionsCommitted();
  sampler->initialize(inWords);
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t lane = 0; lane < 64 * kW; ++lane) {
      if (s >= idle[lane]) {
        cur[lane] = streamStim(lane % 64,
                               start[lane] - warm[lane] + 1 + (s - idle[lane]));
      }
    }
    assembleInputs();
    sampler->stepInto(inWords, outWords);
    for (std::size_t j = 0; j < kW; ++j) {
      for (int i = 0; i < width; ++i) {
        sM[static_cast<std::size_t>(i)] =
            outWords[static_cast<std::size_t>(i) * kW + j];
      }
      std::fill(sM.begin() + width, sM.end(), 0);
      const std::uint64_t coutWord =
          outWords[static_cast<std::size_t>(width) * kW + j];
      oisa::netlist::transpose64(sM);
      for (std::size_t l = 0; l < 64; ++l) {
        const std::size_t lane = 64 * j + l;
        if (s < idle[lane] + warm[lane]) continue;
        const std::size_t c = start[lane] + (s - idle[lane] - warm[lane]);
        std::uint64_t value = sM[l];
        if (width < 64 && ((coutWord >> l) & 1u) != 0) {
          value |= std::uint64_t{1} << width;
        }
        silver[c * 64 + l] = value;
      }
    }
  }
  TimedMeasurement out;
  out.events = sampler->simulator().eventsProcessed() - events0;
  out.transitions = sampler->simulator().laneTransitionsCommitted() -
                    transitions0;
  oisa::core::ErrorCombination combo;
  for (std::size_t m = 0; m < measured.size(); ++m) {
    const ex::Stimulus& stim = measured[m];
    combo.add(oisa::core::OutputTriple{
        behavioral.exactAdd(stim.a, stim.b, stim.carryIn).value(width),
        behavioral.add(stim.a, stim.b, stim.carryIn).value(width),
        silver[m]});
  }
  out.relJointRms = combo.relJoint().rms();
  return out;
}

ex::FaultScanRow tracedFaultCell(const SynthesizedDesign& design,
                                 std::uint64_t seed, CellCounts& counts) {
  const int width = design.config.width;
  std::shared_ptr<const oisa::netlist::CompiledNetlist> compiled;
  {
    const ObsSpan span("netlist.compile", "bench");
    compiled = oisa::netlist::CompiledNetlist::compile(design.netlist);
  }
  if (compiled->inputNets().size() != static_cast<std::size_t>(2 * width + 1)) {
    throw std::invalid_argument("design '" + design.config.name() +
                                "' does not follow the adder port convention");
  }
  ex::FaultScanRow row;
  row.design = design.config.name();
  row.cprPercent = kFaultCpr;
  row.periodNs = ex::overclockedPeriodNs(signOffNs(), kFaultCpr);

  std::optional<oisa::fault::FaultUniverse> universe;
  std::unique_ptr<oisa::fault::AnyPpsfpEngine> engine;
  {
    const ObsSpan span("fault.universe", "bench");
    universe.emplace(compiled);
    engine = oisa::fault::makePpsfpEngine(compiled);
  }
  oisa::fault::CoverageOptions coverage;
  coverage.patterns = kFaultPatterns;
  const auto workload = ex::makeWorkload(kStimulus, width, seed);
  const std::size_t engineLanes = engine->lanes();
  const std::size_t kW = engine->wordsPerNet();
  std::array<ex::Stimulus, 64> stims{};
  std::vector<std::uint64_t> subWords(compiled->inputNets().size(), 0);
  std::uint64_t remaining = coverage.patterns;
  const oisa::fault::PatternBlockSource source =
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
      ex::packStimulusBlock(std::span(stims.data(), sub), width, subWords);
      for (std::size_t i = 0; i < subWords.size(); ++i) {
        inputWords[i * kW + j] = subWords[i];
      }
      packed += sub;
    }
    return count;
  };
  oisa::fault::CoverageResult cov;
  {
    const ObsSpan span("fault.run_coverage", "bench");
    cov = oisa::fault::runCoverage(*universe, *engine, coverage, source);
  }
  row.universeFaults = cov.universeFaults;
  row.collapsedClasses = cov.collapsedClasses;
  row.detectedClasses = cov.detectedClasses;
  row.coveragePercent = cov.coverage() * 100.0;
  row.patterns = cov.patternsApplied;
  counts.classes += cov.collapsedClasses;
  counts.patterns += cov.patternsApplied;

  std::vector<oisa::fault::Fault> detectedStems;
  const auto classes = universe->collapsed();
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    if (cov.detected[ci] != 0) detectedStems.push_back(classes[ci]);
  }
  const std::vector<oisa::fault::Fault> sample =
      oisa::fault::selectTimedFaults(detectedStems, kFaultTimedFaults);
  const auto timed = [&](const oisa::fault::Fault* defect) {
    const ObsSpan span("fault.timed", "bench");
    const TimedMeasurement m = measureTimed(
        compiled, design, row.periodNs, defect, kFaultTimedCycles, seed + 1);
    ++counts.timedRuns;
    counts.timedEvents += m.events;
    counts.timedTransitions += m.transitions;
    counts.traceBytes += (64 + kFaultTimedCycles) * sizeof(ex::Stimulus) +
                         kFaultTimedCycles * sizeof(std::uint64_t);
    return m.relJointRms;
  };
  row.rmsRelJointHealthy = timed(nullptr);
  double sum = 0.0;
  for (const oisa::fault::Fault& f : sample) {
    const double rms = timed(&f);
    sum += rms;
    row.worstRelJointFaulty = std::max(row.worstRelJointFaulty, rms);
  }
  row.timedFaultsMeasured = sample.size();
  if (!sample.empty()) {
    row.rmsRelJointFaulty = sum / static_cast<double>(sample.size());
    row.eJointShift = row.rmsRelJointFaulty - row.rmsRelJointHealthy;
  }
  return row;
}

// --- probes ----------------------------------------------------------------

/// Replays one stimulus stream as TraceCollector::collect materializes it
/// (`cycles + 1` draws; draw 0 is the settle vector) and the behavioral
/// gold/diamond adds it makes per recorded cycle. Returns a checksum so
/// the work cannot be optimized away.
std::uint64_t probeCollectStream(const SynthesizedDesign& design,
                                 std::uint64_t seed, std::uint64_t cycles,
                                 ProbeCounts& counts) {
  const int width = design.config.width;
  // Both buffers are allocated inside their spans, as collect()
  // allocates them inside its own.
  std::vector<ex::Stimulus> stimuli;
  {
    const ObsSpan span("experiments.stimulus", "bench");
    stimuli.resize(cycles + 1);
    auto workload = ex::makeWorkload(kStimulus, width, seed);
    for (auto& s : stimuli) s = workload->next();
  }
  const oisa::core::IsaAdder behavioral(design.config);
  oisa::predict::Trace trace;
  {
    const ObsSpan span("core.behavioral", "bench");
    trace.resize(cycles);
    for (std::uint64_t t = 0; t < cycles; ++t) {
      const ex::Stimulus& stim = stimuli[t + 1];
      oisa::predict::TraceRecord& rec = trace[t];
      rec.a = stim.a;
      rec.b = stim.b;
      rec.carryIn = stim.carryIn;
      const oisa::core::IsaSum diamond =
          behavioral.exactAdd(stim.a, stim.b, stim.carryIn);
      rec.diamond = diamond.sum;
      rec.diamondCout = diamond.carryOut;
      const oisa::core::IsaSum gold =
          behavioral.add(stim.a, stim.b, stim.carryIn);
      rec.gold = gold.sum;
      rec.goldCout = gold.carryOut;
    }
  }
  counts.stimuli += cycles + 1;
  counts.behavioralAdds += 2 * cycles;
  return cycles == 0 ? 0 : trace.back().gold ^ trace.front().diamond;
}

/// Replays one fault cell's draws: the coverage patterns (drawn 64 at a
/// time, never materialized) and, per timed run, the 64 settle plus
/// `timedCycles` measured draws and their gold/diamond adds.
std::uint64_t probeFaultCell(const SynthesizedDesign& design,
                             std::uint64_t seed, const CellCounts& cell,
                             ProbeCounts& counts) {
  const int width = design.config.width;
  std::uint64_t checksum = 0;
  {
    const ObsSpan span("experiments.coverage_stimulus", "bench");
    auto workload = ex::makeWorkload(kStimulus, width, seed);
    std::array<ex::Stimulus, 64> stims{};
    for (std::uint64_t done = 0; done < cell.patterns; done += 64) {
      const auto sub =
          static_cast<std::size_t>(std::min<std::uint64_t>(64, cell.patterns - done));
      for (std::size_t lane = 0; lane < sub; ++lane) stims[lane] = workload->next();
      checksum ^= stims[0].a;
    }
  }
  counts.stimuli += cell.patterns;
  const oisa::core::IsaAdder behavioral(design.config);
  for (std::uint64_t run = 0; run < cell.timedRuns; ++run) {
    std::array<ex::Stimulus, 64> settle{};
    std::vector<ex::Stimulus> measured;
    {
      const ObsSpan span("experiments.stimulus", "bench");
      measured.resize(kFaultTimedCycles);
      auto workload = ex::makeWorkload(kStimulus, width, seed + 1);
      for (auto& s : settle) s = workload->next();
      for (auto& s : measured) s = workload->next();
    }
    {
      const ObsSpan span("core.behavioral", "bench");
      for (const ex::Stimulus& stim : measured) {
        checksum += behavioral.exactAdd(stim.a, stim.b, stim.carryIn).value(width);
        checksum ^= behavioral.add(stim.a, stim.b, stim.carryIn).value(width);
      }
    }
    counts.stimuli += 64 + kFaultTimedCycles;
    counts.behavioralAdds += 2 * kFaultTimedCycles;
  }
  return checksum;
}

}  // namespace

const std::vector<WorkloadSpec>& workloadSpecs() {
  static const std::vector<WorkloadSpec> specs = {
      {"fig9_char_1m", Kind::Fig9},
      {"fig7_predict_10x", Kind::Fig7},
      {"fault_scan_16m", Kind::Fault}};
  return specs;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : workloadSpecs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<SynthesizedDesign> synthesize() {
  oisa::circuits::SynthesisOptions options;
  options.relaxSlack = true;
  return oisa::circuits::synthesizePaperDesigns(
      oisa::timing::CellLibrary::generic65(), options);
}

CampaignRows runPipeline(const WorkloadSpec& spec,
                         const std::vector<SynthesizedDesign>& designs,
                         std::uint64_t seed) {
  auto names = cellNames(spec, designs);
  switch (spec.kind) {
    case Kind::Fig9:
      return formatRows(std::move(names), [&] {
        return ex::runErrorCombination(designs, paperCprs(),
                                       runOptions(seed, kFig9Cycles));
      });
    case Kind::Fig7:
      return formatRows(std::move(names), [&] {
        return ex::runPredictionEvaluation(designs, paperCprs(),
                                           predictionOptions(seed));
      });
    case Kind::Fault:
      return formatRows(std::move(names), [&] {
        return ex::runFaultErrorScan(designs, faultOptions(seed));
      });
  }
  throw std::logic_error("unknown workload kind");
}

TracedCampaign runTraced(const WorkloadSpec& spec,
                         const std::vector<SynthesizedDesign>& designs,
                         std::uint64_t seed) {
  TracedCampaign out;
  const std::size_t cells = cellCount(spec, designs);
  out.cells.assign(cells, CellCounts{});
  const ex::RunOptions run = runOptions(seed, 0);
  const auto cpr = [&](std::size_t cell) {
    return paperCprs()[cell % paperCprs().size()];
  };
  const auto design = [&](std::size_t cell) -> const SynthesizedDesign& {
    return spec.kind == Kind::Fault ? designs[cell]
                                    : designs[cell / paperCprs().size()];
  };
  switch (spec.kind) {
    case Kind::Fig9:
      out.rows = formatRows(cellNames(spec, designs), [&] {
        std::vector<ex::CombinationRow> rows(cells);
        ex::runCampaignGrid(cells, run, [&](std::size_t cell) {
          const ObsSpan span("experiments.cell", "bench", "cell", cell);
          rows[cell] =
              tracedFig9Cell(design(cell), cpr(cell), seed, out.cells[cell]);
        });
        return rows;
      });
      break;
    case Kind::Fig7:
      out.rows = formatRows(cellNames(spec, designs), [&] {
        std::vector<ex::PredictionRow> rows(cells);
        ex::runCampaignGrid(cells, run, [&](std::size_t cell) {
          const ObsSpan span("experiments.cell", "bench", "cell", cell);
          rows[cell] =
              tracedFig7Cell(design(cell), cpr(cell), seed, out.cells[cell]);
        });
        return rows;
      });
      break;
    case Kind::Fault:
      out.rows = formatRows(cellNames(spec, designs), [&] {
        std::vector<ex::FaultScanRow> rows(cells);
        ex::runCampaignGrid(cells, run, [&](std::size_t cell) {
          const ObsSpan span("experiments.cell", "bench", "cell", cell);
          rows[cell] = tracedFaultCell(design(cell), seed, out.cells[cell]);
        });
        return rows;
      });
      break;
  }
  return out;
}

ProbeCounts runProbes(const WorkloadSpec& spec,
                      const std::vector<SynthesizedDesign>& designs,
                      std::uint64_t seed, const TracedCampaign& traced) {
  const std::size_t cells = cellCount(spec, designs);
  std::vector<ProbeCounts> perCell(cells);
  ex::runCampaignGrid(cells, runOptions(seed, 0), [&](std::size_t cell) {
    const ObsSpan span("probe.cell", "bench", "cell", cell);
    ProbeCounts& counts = perCell[cell];
    switch (spec.kind) {
      case Kind::Fig9:
        counts.checksum = probeCollectStream(
            designs[cell / paperCprs().size()], seed, kFig9Cycles, counts);
        break;
      case Kind::Fig7: {
        const SynthesizedDesign& design = designs[cell / paperCprs().size()];
        counts.checksum =
            probeCollectStream(design, seed + 1, kFig7TrainCycles, counts) ^
            probeCollectStream(design, seed + 2, kFig7TestCycles, counts);
        break;
      }
      case Kind::Fault:
        counts.checksum =
            probeFaultCell(designs[cell], seed, traced.cells[cell], counts);
        break;
    }
  });
  ProbeCounts total;
  for (const ProbeCounts& counts : perCell) {
    total.stimuli += counts.stimuli;
    total.behavioralAdds += counts.behavioralAdds;
    total.checksum ^= counts.checksum;
  }
  return total;
}

}  // namespace perfbench
