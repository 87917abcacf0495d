// Telemetry overhead gate: the fig7 cell path (train the per-bit forest,
// evaluate ABPER/AVPE) run with the obs substrate fully armed (metrics
// registry on + span tracing into the session buffer) versus stripped
// (metrics master switch off, tracing disarmed). The CI gate is
// --min-speedup=0.97 on the median of the per-pair stripped/armed
// ratios: instrumentation may cost at most ~3% on the real campaign path.
//
// Self-checking before any timing is reported:
//   1. byte-identity — the evaluation rows produced with telemetry armed
//      must equal the stripped rows bit for bit (cross-check #11: the
//      substrate is side-effect-only);
//   2. liveness — the armed run must actually record (counters move,
//      spans land in the buffer); gating a no-op would prove nothing.
//
// Usage: micro_obs [--min-speedup=X] [--json=path] [--threads=N]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "circuits/synthesis.h"
#include "experiments/cli.h"
#include "experiments/runner.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include "bench_common.h"

namespace {

constexpr std::uint64_t kTrainCycles = 6000;
constexpr std::uint64_t kTestCycles = 3000;
constexpr std::size_t kTrees = 10;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kPairs = 101;

bool rowsEqual(const std::vector<oisa::experiments::PredictionRow>& a,
               const std::vector<oisa::experiments::PredictionRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].design != b[i].design || a[i].cprPercent != b[i].cprPercent ||
        a[i].periodNs != b[i].periodNs || a[i].abper != b[i].abper ||
        a[i].avpe != b[i].avpe || a[i].trainCycles != b[i].trainCycles ||
        a[i].testCycles != b[i].testCycles) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const bench::GateOptions gate = bench::gateOptions(args);
    args.rejectUnread();

    // One representative design at one CPR point — the same cell body
    // fig7 sweeps 36 times.
    const auto design =
        circuits::synthesize(core::makeIsa(8, 0, 0, 4),
                             timing::CellLibrary::generic65(),
                             circuits::SynthesisOptions{});
    const std::vector<circuits::SynthesizedDesign> designs = {design};
    const std::vector<double> cprs = {15.0};

    experiments::PredictionOptions options;
    options.trainCycles = kTrainCycles;
    options.testCycles = kTestCycles;
    options.run.seed = kSeed;
    options.run.threads = gate.threads;
    options.predictor.forest.treeCount = kTrees;

    const auto runCell = [&] {
      return runPredictionEvaluation(designs, cprs, options);
    };

    // -----------------------------------------------------------------
    // Correctness gate 1: telemetry on or off, the rows are identical —
    // the substrate observes the campaign, it never participates in it.
    // -----------------------------------------------------------------
    obs::setMetricsEnabled(false);
    obs::stopTracing();
    const auto strippedRows = runCell();

    obs::setMetricsEnabled(true);
    obs::startTracing();
    const obs::MetricsSnapshot before = obs::snapshotMetrics();
    const auto armedRows = runCell();
    const obs::MetricsSnapshot after = obs::snapshotMetrics();
    const std::string trace = obs::drainTraceJson();
    obs::stopTracing();

    if (!rowsEqual(strippedRows, armedRows)) {
      std::cerr << "MISMATCH: telemetry changed the evaluation rows\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Correctness gate 2: the armed run actually recorded something.
    // -----------------------------------------------------------------
    const auto delta = [&](const char* name) {
      const auto b = before.counters.find(name);
      const auto a = after.counters.find(name);
      const std::uint64_t b0 = b == before.counters.end() ? 0 : b->second;
      const std::uint64_t a0 = a == after.counters.end() ? 0 : a->second;
      return a0 - b0;
    };
    const std::uint64_t cells = delta("grid.cells_completed");
    const std::uint64_t evalRows = delta("predict.eval_rows");
    const std::uint64_t simRecords = delta("sim.records_sampled");
    if (cells == 0 || evalRows == 0 || simRecords == 0) {
      std::cerr << "MISMATCH: armed run recorded no counters (cells " << cells
                << ", eval rows " << evalRows << ", sim records "
                << simRecords << ")\n";
      return EXIT_FAILURE;
    }
    if (trace.find("\"name\": \"cell\"") == std::string::npos) {
      std::cerr << "MISMATCH: armed run produced no cell spans\n";
      return EXIT_FAILURE;
    }

    // -----------------------------------------------------------------
    // Timed runs, in pairs: stripped is the reference, armed the
    // contender, and each pair's ratio is stripped/armed, so 1.0 means
    // free and 0.97 is the 3%-overhead ceiling CI enforces. The cell runs
    // in a few ms, so one slow run moves a single ratio by several
    // percent; the median of the pair ratios ignores the pairs a burst of
    // noise hits. Arming and disarming run untimed before each run: a
    // traced campaign allocates and frees its trace buffer once per
    // session, not per cell. Every timed run's rows must equal the
    // stripped rows of gate 1.
    // -----------------------------------------------------------------
    std::size_t diverged = 0;
    const auto timedRun = [&] {
      if (!rowsEqual(runCell(), strippedRows)) ++diverged;
    };
    const bench::PairTiming timing = bench::timePairs(
        kPairs, timedRun, timedRun, [](bool armed) {
          obs::setMetricsEnabled(armed);
          armed ? obs::startTracing() : obs::stopTracing();
        });
    obs::stopTracing();
    obs::setMetricsEnabled(true);  // leave the process-default state
    if (diverged != 0) {
      std::cerr << "MISMATCH: " << diverged
                << " timed run(s) produced different rows\n";
      return EXIT_FAILURE;
    }

    const double strippedSec = timing.referenceSec;
    const double armedSec = timing.contenderSec;
    const double speedup = timing.speedup;
    std::cout << "fig7 cell (" << design.config.name() << " @ 15% CPR, train "
              << options.trainCycles << " / test " << options.testCycles
              << " cycles)\nrows identical armed vs stripped; armed run: "
              << cells << " cell(s), " << evalRows
              << " eval rows, spans recorded\n\n"
              << "stripped: " << strippedSec << " s (median of " << kPairs
              << ")\narmed:    " << armedSec << " s (median of " << kPairs
              << "); a speedup of 1.0 means telemetry is free\n";

    bench::BenchJson json("micro_obs");
    json.add("train_cycles", options.trainCycles)
        .add("test_cycles", options.testCycles)
        .add("cells", cells)
        .add("eval_rows", evalRows)
        .add("stripped_sec", strippedSec)
        .add("armed_sec", armedSec);
    return bench::finishSpeedupBench(json, gate, speedup, kPairs);
  });
}
