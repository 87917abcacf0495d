// Fig. 9 (a,b,c): relative-error RMS of the twelve designs under 5, 10 and
// 15% clock-period reduction, split into structural, timing and joint
// contributions. Values are percentages (the paper's y-axis), floored at
// 1e-6% for log-scale display like the paper's figures.
//
// Usage: fig9_error_combination [--cycles=N] [--seed=S] [--relax]
//                               [--workload=uniform] [--threads=N]
//                               [--checkpoint=path] [--resume]
//                               [--checkpoint-every=N] [--retries=N]
//                               [--deadline=S] [--progress] [--csv=path]
//                               [--trace-out=f] [--metrics-out=f]
#include "experiments/runner.h"
#include "experiments/trace_collector.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&]() -> int {
  const experiments::ArgParser args(argc, argv);
  const auto obsCtx = bench::beginObs(args);
  const auto synth = bench::synthesisOptions(args);

  experiments::RunOptions options;
  options.cycles = args.getU64("cycles", 20000);
  options.seed = args.getU64("seed", 42);
  options.threads = bench::threadsOption(args);
  options.workload = args.getString("workload", "uniform");
  bench::applyRobustnessOptions(args, options);
  const std::string csvPath = args.getString("csv", "");
  args.rejectUnread();
  const auto designs = bench::synthesizeAll(synth);

  const auto rows =
      runErrorCombination(designs, bench::paperCprs(), options);
  bench::writeObsArtifacts(obsCtx, options.threads);

  std::cout << "== Fig. 9: relative error RMS (%) under overclocking ==\n"
            << "(cycles per point: " << options.cycles
            << "; paper used 10M uniform random inputs)\n\n";
  for (const double cpr : bench::paperCprs()) {
    std::cout << "--- Fig. 9 @ " << cpr << "% CPR (period "
              << experiments::formatFixed(
                     experiments::overclockedPeriodNs(0.3, cpr), 4)
              << " ns) ---\n";
    experiments::Table table({"design", "structural[%]", "timing[%]",
                              "joint[%]", "timing-err-rate"});
    for (const auto& row : rows) {
      if (row.cprPercent != cpr) continue;
      table.addRow(
          {row.design,
           experiments::formatSci(
               experiments::displayFloor(row.rmsRelStruct * 100.0), 3),
           experiments::formatSci(
               experiments::displayFloor(row.rmsRelTiming * 100.0), 3),
           experiments::formatSci(
               experiments::displayFloor(row.rmsRelJoint * 100.0), 3),
           experiments::formatSci(row.timingErrorRate, 2)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // Combined CSV across all CPRs when requested.
  experiments::Table csv({"design", "cpr_percent", "period_ns",
                          "rms_rel_struct", "rms_rel_timing",
                          "rms_rel_joint"});
  for (const auto& row : rows) {
    csv.addRow({row.design, experiments::formatFixed(row.cprPercent, 1),
                experiments::formatFixed(row.periodNs, 4),
                experiments::formatSci(row.rmsRelStruct, 6),
                experiments::formatSci(row.rmsRelTiming, 6),
                experiments::formatSci(row.rmsRelJoint, 6)});
  }
  if (!csvPath.empty()) {
    csv.writeCsvFile(csvPath);
    std::cout << "(csv written to " << csvPath << ")\n";
  }
  return 0;
  });
}
