// Guardband characterization (paper Sec. III motivation): multi-corner
// worst-case analysis of every design — the conservative margin that
// bit-level timing-error prediction lets a typical-silicon part reclaim
// through overclocking. Also reports the predictor-aggregated feature
// importance on one overclocked design, evidencing that the paper's
// {x[t-1], yRTL} features carry signal.
//
// Usage: table2_guardband [--importance] [--threads=N] [--csv=path]
#include <algorithm>
#include <numeric>

#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "timing/corners.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const auto lib = timing::CellLibrary::generic65();

  std::cout << "== Table II: multi-corner guardband per design ==\n\n";
  experiments::Table table({"design", "FF[ns]", "TT[ns]", "SS[ns]",
                            "guardband[ns]", "recoverable[%]"});
  // Each design's synthesis + corner analysis is independent: fan them out
  // across the pool, then print in design order (deterministic at any
  // thread count).
  const auto designs = core::paperDesigns();
  std::vector<timing::GuardbandReport> reports(designs.size());
  experiments::GridScheduler pool(bench::threadsOption(args));
  pool.run(designs.size(), [&](std::size_t i) {
    // Analyze the topology the synthesis flow actually picks at 0.3 ns.
    const auto design =
        circuits::synthesize(designs[i], lib, circuits::SynthesisOptions{});
    reports[i] = timing::analyzeGuardband(design.netlist, lib);
  });
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto& report = reports[i];
    table.addRow({designs[i].name(),
                  experiments::formatFixed(report.bestDelayNs, 4),
                  experiments::formatFixed(report.typicalDelayNs, 4),
                  experiments::formatFixed(report.worstDelayNs, 4),
                  experiments::formatFixed(report.guardbandNs(), 4),
                  experiments::formatFixed(
                      report.recoverableFraction() * 100.0, 1)});
  }
  bench::emit(table, args);

  if (args.getBool("importance", true)) {
    // Train the predictor on an aggressively overclocked design and list
    // the most informative features.
    circuits::SynthesisOptions synth;
    synth.relaxSlack = true;
    const auto design = circuits::synthesize(
        core::makeIsa(16, 2, 0, 4), lib, synth);
    auto workload = experiments::makeWorkload("uniform", 32, 42);
    const auto trace = experiments::collectTrace(
        design, experiments::overclockedPeriodNs(0.3, 15.0), *workload,
        6000);
    predict::BitLevelPredictor predictor(32);
    predictor.fit(trace);
    const auto importance = predictor.featureImportance();
    std::vector<std::size_t> order(importance.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                return importance[x] > importance[y];
              });
    std::cout << "\n== Top-10 predictor features, ISA (16,2,0,4) @ 15% CPR "
                 "==\n\n";
    experiments::Table top({"rank", "feature", "importance"});
    for (int r = 0; r < 10; ++r) {
      top.addRow({std::to_string(r + 1),
                  predictor.extractor().featureName(order[static_cast<std::size_t>(r)]),
                  experiments::formatFixed(
                      importance[order[static_cast<std::size_t>(r)]], 4)});
    }
    top.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}
