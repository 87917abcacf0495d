// Fig. 7: average bit-level prediction error rate (ABPER) of the per-bit
// Random-Forest timing-error model for every design at 5/10/15% CPR.
// Values below 1e-6 print as 1e-6, as in the paper's log-scale figure.
//
// Usage: fig7_abper [--train-cycles=N] [--test-cycles=N] [--trees=T]
//                   [--depth=D] [--seed=S] [--relax] [--threads=N]
//                   [--checkpoint=path] [--resume] [--checkpoint-every=N]
//                   [--retries=N] [--deadline=S] [--progress]
//                   [--csv=path] [--model-out=base] [--model-in=base]
//                   [--trace-out=f] [--metrics-out=f]
#include "experiments/runner.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&]() -> int {
  const experiments::ArgParser args(argc, argv);
  const auto obsCtx = bench::beginObs(args);
  const auto synth = bench::synthesisOptions(args);

  experiments::PredictionOptions options;
  options.trainCycles = args.getU64("train-cycles", 6000);
  options.testCycles = args.getU64("test-cycles", 3000);
  options.run.seed = args.getU64("seed", 42);
  options.run.threads = bench::threadsOption(args);
  bench::applyRobustnessOptions(args, options.run);
  options.predictor.forest.treeCount = args.getU64("trees", 10);
  options.predictor.forest.tree.maxDepth = args.getBounded<int>("depth", 10);
  bench::applyModelOptions(args, options);
  const std::string csv = args.getString("csv", "");
  args.rejectUnread();
  const auto designs = bench::synthesizeAll(synth);

  const auto rows =
      runPredictionEvaluation(designs, bench::paperCprs(), options);
  bench::writeObsArtifacts(obsCtx, options.run.threads);

  std::cout << "== Fig. 7: ABPER of the bit-level timing-error model ==\n"
            << "(train " << options.trainCycles << " / test "
            << options.testCycles << " cycles, "
            << options.predictor.forest.treeCount << " trees)\n\n";
  experiments::Table table(
      {"design", "0.255ns(15%)", "0.27ns(10%)", "0.285ns(5%)"});
  for (const auto& design : designs) {
    std::string cells[3];
    for (const auto& row : rows) {
      if (row.design != design.config.name()) continue;
      const std::string value =
          experiments::formatSci(experiments::displayFloor(row.abper), 3);
      if (row.cprPercent == 15.0) cells[0] = value;
      if (row.cprPercent == 10.0) cells[1] = value;
      if (row.cprPercent == 5.0) cells[2] = value;
    }
    table.addRow({design.config.name(), cells[0], cells[1], cells[2]});
  }
  bench::emit(table, csv);
  return 0;
  });
}
