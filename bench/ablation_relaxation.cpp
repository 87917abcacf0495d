// Ablation A: effect of the power-recovery (slack-relaxation) sizing pass
// on overclocking robustness. Runs the Fig. 9 pipeline on a design subset
// with and without relaxation: relaxed netlists have less timing headroom,
// so timing errors appear earlier — quantifying the guardband that synthesis
// slack silently provides.
//
// Usage: ablation_relaxation [--cycles=N] [--seed=S] [--csv=path]
#include "experiments/runner.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);

  experiments::RunOptions options;
  options.cycles = args.getU64("cycles", 4000);
  options.seed = args.getU64("seed", 42);
  const std::string csv = args.getString("csv", "");
  args.rejectUnread();

  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 1, 6),
      core::makeExact(32)};

  std::cout << "== Ablation: slack relaxation (power recovery) ==\n\n";
  experiments::Table table({"design", "relaxed", "critical[ns]", "cpr[%]",
                            "timing-rms[%]", "joint-rms[%]"});
  for (const bool relaxed : {false, true}) {
    circuits::SynthesisOptions synth;
    synth.relaxSlack = relaxed;
    std::vector<circuits::SynthesizedDesign> designs;
    for (const auto& cfg : subset) {
      designs.push_back(circuits::synthesize(
          cfg, timing::CellLibrary::generic65(), synth));
    }
    const auto rows =
        runErrorCombination(designs, bench::paperCprs(), options);
    for (const auto& row : rows) {
      double critical = 0.0;
      for (const auto& d : designs) {
        if (d.config.name() == row.design) critical = d.criticalDelayNs;
      }
      table.addRow(
          {row.design, relaxed ? "yes" : "no",
           experiments::formatFixed(critical, 4),
           experiments::formatFixed(row.cprPercent, 0),
           experiments::formatSci(
               experiments::displayFloor(row.rmsRelTiming * 100.0), 3),
           experiments::formatSci(
               experiments::displayFloor(row.rmsRelJoint * 100.0), 3)});
    }
  }
  bench::emit(table, csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}
