// Telemetry overhead gate: the fig7 cell path (train the per-bit forest,
// evaluate ABPER/AVPE) run with the obs substrate fully armed (metrics
// registry on + span tracing into the ring) versus stripped (metrics
// master switch off, tracing disarmed). The CI gate is --min-speedup=0.97
// on the median of the per-pair stripped/armed ratios: instrumentation
// may cost at most ~3% on the real campaign path.
//
// Self-checking before any timing is reported:
//   1. byte-identity — the evaluation rows produced with telemetry armed
//      must equal the stripped rows bit for bit (cross-check #11: the
//      substrate is side-effect-only);
//   2. liveness — the armed run must actually record (counters move,
//      spans land in the ring); gating a no-op would prove nothing.
//
// Usage: micro_obs [--train-cycles=N] [--test-cycles=N] [--trees=T]
//                  [--seed=S] [--reps=N (default 101)] [--threads=N]
//                  [--min-speedup=X] [--json=path]
#include <algorithm>
#include <chrono>
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

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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
  return bench::runGuarded([&] {
    const experiments::ArgParser args(argc, argv);
    const double minSpeedup = args.getDouble("min-speedup", 0.0);

    // One representative design at one CPR point — the same cell body
    // fig7 sweeps 36 times.
    const auto design =
        circuits::synthesize(core::makeIsa(8, 0, 0, 4),
                             timing::CellLibrary::generic65(),
                             circuits::SynthesisOptions{});
    const std::vector<circuits::SynthesizedDesign> designs = {design};
    const std::vector<double> cprs = {15.0};

    experiments::PredictionOptions options;
    options.trainCycles = args.getU64("train-cycles", 6000);
    options.testCycles = args.getU64("test-cycles", 3000);
    options.run.seed = args.getU64("seed", 42);
    options.run.threads = bench::threadsOption(args);
    options.predictor.forest.treeCount = args.getU64("trees", 10);

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
    // free and 0.97 is the 3%-overhead ceiling CI enforces. The gate reads
    // the median of the pair ratios. The cell runs in a few ms, so one
    // slow run moves a min-of-reps ratio by several percent (it read
    // 0.967 once at 101 pairs); a pair's two runs share the host's state,
    // and the median ignores the pairs a burst of noise hits. Each pair
    // alternates which side runs first, so drift within a pair does not
    // always favour one side.
    // -----------------------------------------------------------------
    const auto timedRun = [&](bool armed,
                              std::vector<experiments::PredictionRow>& rows) {
      obs::setMetricsEnabled(armed);
      if (armed) obs::startTracing();
      const auto t0 = Clock::now();
      rows = runCell();
      const double seconds = secondsSince(t0);
      if (armed) obs::stopTracing();
      return seconds;
    };
    const auto reps = std::max<std::uint64_t>(1, args.getU64("reps", 101));
    std::vector<double> strippedSecs;
    std::vector<double> armedSecs;
    std::vector<double> ratios;
    for (std::uint64_t i = 0; i < reps; ++i) {
      std::vector<experiments::PredictionRow> sRows;
      std::vector<experiments::PredictionRow> aRows;
      double s = 0.0;
      double a = 0.0;
      if (i % 2 == 0) {
        s = timedRun(false, sRows);
        a = timedRun(true, aRows);
      } else {
        a = timedRun(true, aRows);
        s = timedRun(false, sRows);
      }
      if (!rowsEqual(sRows, aRows)) {
        std::cerr << "MISMATCH: timed-loop rows diverged at rep " << i << "\n";
        return EXIT_FAILURE;
      }
      strippedSecs.push_back(s);
      armedSecs.push_back(a);
      ratios.push_back(a > 0 ? s / a : 0.0);
    }
    obs::setMetricsEnabled(true);  // leave the process-default state

    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const std::size_t n = v.size();
      return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };
    const double strippedSec = median(strippedSecs);
    const double armedSec = median(armedSecs);
    const double speedup = median(ratios);
    std::cout << "fig7 cell (" << design.config.name() << " @ 15% CPR, train "
              << options.trainCycles << " / test " << options.testCycles
              << " cycles)\nrows identical armed vs stripped; armed run: "
              << cells << " cell(s), " << evalRows
              << " eval rows, spans recorded\n\n"
              << "stripped: " << strippedSec << " s (median of " << reps
              << ")\narmed:    " << armedSec << " s (median of " << reps
              << ")\nspeedup:  " << speedup
              << "x (median pair ratio; 1.0 = telemetry free)\n";

    bench::BenchJson json("micro_obs");
    json.add("train_cycles", options.trainCycles)
        .add("test_cycles", options.testCycles)
        .add("cells", cells)
        .add("eval_rows", evalRows)
        .add("pairs", reps)
        .add("stripped_sec", strippedSec)
        .add("armed_sec", armedSec);
    return bench::finishSpeedupBench(json, args, speedup, minSpeedup);
  });
}
