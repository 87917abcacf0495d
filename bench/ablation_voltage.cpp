// Ablation E: voltage over-scaling (VOS) — the dual of overclocking from
// the paper's motivation [1]. At a fixed 0.3 ns clock, the supply is
// lowered until paths miss the cycle; the same joint structural+timing
// error methodology applies, with energy scaling as Vdd^2.
//
// Usage: ablation_voltage [--cycles=N] [--seed=S] [--csv=path]
#include "timing/voltage.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 4000);
  const std::uint64_t seed = args.getU64("seed", 42);
  const std::string csv = args.getString("csv", "");
  args.rejectUnread();

  const auto nominalLib = timing::CellLibrary::generic65();
  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 1, 6),
      core::makeExact(32)};
  const double voltages[] = {1.20, 1.10, 1.05, 1.00, 0.95};

  // Relax slack against the unchanged 0.3 ns constraint at nominal
  // voltage, then derate the annotation to each scaled voltage; every
  // derated design runs at the 0.3 ns sign-off clock (0% CPR).
  circuits::SynthesisOptions synth;
  synth.relaxSlack = true;
  std::vector<circuits::SynthesizedDesign> designs;
  for (const auto& cfg : subset) {
    const auto nominal = circuits::synthesize(cfg, nominalLib, synth);
    for (const double vdd : voltages) {
      auto& design = designs.emplace_back(nominal);
      const double factor = timing::voltageDelayFactor(vdd);
      for (std::uint32_t g = 0; g < design.netlist.gateCount(); ++g) {
        design.delays.scale(netlist::GateId{g}, factor);
      }
    }
  }
  experiments::RunOptions options;
  options.cycles = cycles;
  options.seed = seed;
  const double cprPercents[] = {0.0};
  const auto rows =
      experiments::runErrorCombination(designs, cprPercents, options);

  std::cout << "== Ablation: voltage over-scaling at a fixed 0.3 ns clock "
               "==\n(alpha-power-law delay, energy ~ Vdd^2)\n\n";
  experiments::Table table({"design", "vdd[V]", "delay-factor",
                            "energy-factor", "timing-err-rate",
                            "joint-rms[%]"});
  // Rows come design-major, one per CPR point; with the single 0% point
  // row i is designs[i], which was filled config-major, voltage-minor.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double vdd = voltages[i % std::size(voltages)];
    table.addRow(
        {rows[i].design, experiments::formatFixed(vdd, 2),
         experiments::formatFixed(timing::voltageDelayFactor(vdd), 3),
         experiments::formatFixed(timing::voltageEnergyFactor(vdd), 3),
         experiments::formatSci(rows[i].timingErrorRate, 2),
         experiments::formatSci(
             experiments::displayFloor(rows[i].rmsRelJoint * 100.0), 2)});
  }
  bench::emit(table, csv);
  std::cout << "\nSpeculative designs tolerate deeper voltage scaling than "
               "the exact adder at iso-clock, mirroring the overclocking "
               "result.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::experiments::runGuarded([&] { return run(argc, argv); });
}
