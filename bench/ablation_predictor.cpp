// Ablation B: predictor model family and feature ablation. Compares the
// paper's Random Forest against a single decision tree and the majority
// baseline, and quantifies what the {yRTL[t-1], yRTL[t]} output-bit
// features contribute.
//
// Usage: ablation_predictor [--train-cycles=N] [--test-cycles=N]
//                           [--cpr=15] [--seed=S] [--csv=path]
#include "experiments/runner.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);

  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 0, 4),
      core::makeExact(32)};
  std::vector<circuits::SynthesizedDesign> designs;
  for (const auto& cfg : subset) {
    designs.push_back(circuits::synthesize(
        cfg, timing::CellLibrary::generic65(), circuits::SynthesisOptions{}));
  }

  const double cprs[] = {args.getDouble("cpr", 15.0)};
  experiments::PredictionOptions options;
  options.trainCycles = args.getU64("train-cycles", 6000);
  options.testCycles = args.getU64("test-cycles", 3000);
  options.run.seed = args.getU64("seed", 42);

  struct Variant {
    const char* label;
    predict::ModelKind model;
    bool outputBits;
  };
  const Variant variants[] = {
      {"random-forest", predict::ModelKind::RandomForest, true},
      {"decision-tree", predict::ModelKind::DecisionTree, true},
      {"majority", predict::ModelKind::Majority, true},
      {"rf-no-output-bits", predict::ModelKind::RandomForest, false},
  };

  std::cout << "== Ablation: predictor family and features @ " << cprs[0]
            << "% CPR ==\n\n";
  experiments::Table table({"design", "model", "abper", "avpe"});
  for (const Variant& variant : variants) {
    options.predictor.model = variant.model;
    options.predictor.includeOutputBits = variant.outputBits;
    const auto rows = runPredictionEvaluation(designs, cprs, options);
    for (const auto& row : rows) {
      table.addRow({row.design, variant.label,
                    experiments::formatSci(
                        experiments::displayFloor(row.abper), 3),
                    experiments::formatSci(
                        experiments::displayFloor(row.avpe), 3)});
    }
  }
  bench::emit(table, args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}
