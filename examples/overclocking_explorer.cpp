// Overclocking explorer: fine-grained CPR sweep for one design, showing
// where timing errors set in, how they trade against the structural floor,
// and how well the bit-level model tracks them at each point — an
// interactive-style companion to the paper's three fixed CPR points.
//
// Run: ./overclocking_explorer [--block=8] [--spec=0] [--corr=0] [--red=4]
//        [--exact] [--cycles=N] [--max-cpr=20] [--step=2.5] [--predict]
#include <iostream>
#include <string>

#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "predict/bit_predictor.h"

namespace {

/// The most CPR points one sweep runs.
constexpr std::size_t kMaxCprPoints = 10000;

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);

  const core::IsaConfig cfg =
      args.getBool("exact", false)
          ? core::makeExact(32)
          : core::makeIsa(args.getBounded<int>("block", 8),
                          args.getBounded<int>("spec", 0),
                          args.getBounded<int>("corr", 0),
                          args.getBounded<int>("red", 4));
  const std::uint64_t cycles = args.getU64("cycles", 3000);
  const double maxCpr = args.getDouble("max-cpr", 20.0);
  const double step = args.getDouble("step", 2.5);
  const bool predict = args.getBool("predict", false);
  const auto invalid = [&](const std::string& key, const std::string& want) {
    return core::StatusError(core::Status::invalidInput(
        "--" + key + ": expected " + want + ", got '" +
        args.getString(key, "") + "'"));
  };
  // A 100% reduction leaves no clock period, and a step of 0 or less
  // never reaches --max-cpr.
  if (!(maxCpr >= 0.0 && maxCpr < 100.0)) {
    throw invalid("max-cpr", "a percentage in [0, 100)");
  }
  if (step <= 0.0) throw invalid("step", "a positive percentage");
  std::vector<double> cprs;
  for (double cpr = 0.0; cpr <= maxCpr + 1e-9; cpr += step) {
    if (cprs.size() == kMaxCprPoints) {
      throw invalid("step", "a step sweeping at most " +
                                std::to_string(kMaxCprPoints) +
                                " CPR points up to --max-cpr");
    }
    cprs.push_back(cpr);
  }
  args.rejectUnread();

  const auto design = circuits::synthesize(
      cfg, timing::CellLibrary::generic65(), circuits::SynthesisOptions{});
  std::cout << "== Overclocking " << cfg.name() << " (critical path "
            << design.criticalDelayNs << " ns, sign-off 0.3 ns) ==\n\n";

  experiments::RunOptions options;
  options.cycles = cycles;
  const auto rows = runErrorCombination({design}, cprs, options);

  experiments::Table table({"cpr[%]", "period[ns]", "struct-rms[%]",
                            "timing-rms[%]", "joint-rms[%]", "timing-rate",
                            predict ? "abper" : ""});
  for (const auto& row : rows) {
    std::string abper;
    if (predict) {
      experiments::PredictionOptions popt;
      popt.trainCycles = cycles;
      popt.testCycles = cycles / 2;
      const double one[] = {row.cprPercent};
      const auto evals = runPredictionEvaluation({design}, one, popt);
      abper = experiments::formatSci(
          experiments::displayFloor(evals.front().abper), 2);
    }
    table.addRow(
        {experiments::formatFixed(row.cprPercent, 1),
         experiments::formatFixed(row.periodNs, 4),
         experiments::formatSci(
             experiments::displayFloor(row.rmsRelStruct * 100.0), 2),
         experiments::formatSci(
             experiments::displayFloor(row.rmsRelTiming * 100.0), 2),
         experiments::formatSci(
             experiments::displayFloor(row.rmsRelJoint * 100.0), 2),
         experiments::formatSci(row.timingErrorRate, 2), abper});
  }
  table.print(std::cout);
  std::cout << "\nTiming errors set in once the period undercuts the "
               "sensitized path distribution;\nthe structural floor is "
               "clock-independent.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}
