// Defect-aware error scan across the twelve paper designs: stuck-at fault
// coverage of each synthesized netlist under the experiment workload
// (PPSFP, collapsed universe, fault dropping), plus the E_joint shift a
// sampled detected defect adds on top of the healthy structural+timing
// error under overclocked sampling — the paper's two error sources joined
// by the missing third one.
//
// Usage: fault_coverage [--cycles=N] [--seed=S] [--workload=uniform]
//                       [--cpr=15] [--timed-cycles=N] [--timed-faults=N]
//                       [--threads=N] [--relax] [--checkpoint=path]
//                       [--resume] [--checkpoint-every=N] [--retries=N]
//                       [--deadline=S] [--progress] [--csv=path]
//                       [--trace-out=f] [--metrics-out=f]
#include <iostream>

#include "experiments/fault_scan.h"
#include "experiments/report.h"
#include "experiments/trace_collector.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace oisa;
  return experiments::runGuarded([&]() -> int {
  const experiments::ArgParser args(argc, argv);
  const auto obsCtx = bench::beginObs(args);
  const auto synth = bench::synthesisOptions(args);

  experiments::FaultScanOptions options;
  options.run.cycles = args.getU64("cycles", 16384);
  options.run.seed = args.getU64("seed", 42);
  options.run.workload = args.getString("workload", "uniform");
  options.run.threads = bench::threadsOption(args);
  bench::applyRobustnessOptions(args, options.run);
  options.cprPercent = args.getDouble("cpr", 15.0);
  options.timedCycles = args.getU64("timed-cycles", 8192);
  options.timedFaults =
      static_cast<std::size_t>(args.getU64("timed-faults", 8));
  const std::string csvPath = args.getString("csv", "");
  args.rejectUnread();
  const auto designs = bench::synthesizeAll(synth);

  const auto rows = runFaultErrorScan(designs, options);
  bench::writeObsArtifacts(obsCtx, options.run.threads);

  std::cout << "== Stuck-at coverage + defect-aware E_joint shift ==\n"
            << "(coverage: " << options.run.cycles << " "
            << options.run.workload << " patterns through the PPSFP engine; "
            << "timed phase: " << options.timedFaults
            << " detected stem defects x " << options.timedCycles
            << " cycles @ " << options.cprPercent << "% CPR)\n\n";

  experiments::Table table({"design", "faults", "classes", "detected",
                            "coverage[%]", "joint-healthy[%]",
                            "joint-defective[%]", "shift[%]"});
  for (const auto& row : rows) {
    table.addRow(
        {row.design, std::to_string(row.universeFaults),
         std::to_string(row.collapsedClasses),
         std::to_string(row.detectedClasses),
         experiments::formatFixed(row.coveragePercent, 2),
         experiments::formatSci(
             experiments::displayFloor(row.rmsRelJointHealthy * 100.0), 3),
         experiments::formatSci(
             experiments::displayFloor(row.rmsRelJointFaulty * 100.0), 3),
         experiments::formatSci(
             experiments::displayFloor(row.eJointShift * 100.0), 3)});
  }
  table.print(std::cout);

  experiments::Table csv(
      {"design", "universe_faults", "collapsed_classes", "detected_classes",
       "coverage_percent", "patterns", "cpr_percent", "period_ns",
       "rms_rel_joint_healthy", "rms_rel_joint_faulty", "e_joint_shift",
       "worst_rel_joint_faulty", "timed_faults"});
  for (const auto& row : rows) {
    csv.addRow({row.design, std::to_string(row.universeFaults),
                std::to_string(row.collapsedClasses),
                std::to_string(row.detectedClasses),
                experiments::formatFixed(row.coveragePercent, 3),
                std::to_string(row.patterns),
                experiments::formatFixed(row.cprPercent, 1),
                experiments::formatFixed(row.periodNs, 4),
                experiments::formatSci(row.rmsRelJointHealthy, 6),
                experiments::formatSci(row.rmsRelJointFaulty, 6),
                experiments::formatSci(row.eJointShift, 6),
                experiments::formatSci(row.worstRelJointFaulty, 6),
                std::to_string(row.timedFaultsMeasured)});
  }
  if (!csvPath.empty()) {
    csv.writeCsvFile(csvPath);
    std::cout << "\n(csv written to " << csvPath << ")\n";
  }
  return 0;
  });
}
