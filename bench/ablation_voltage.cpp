// Ablation E: voltage over-scaling (VOS) — the dual of overclocking from
// the paper's motivation [1]. At a fixed 0.3 ns clock, the supply is
// lowered until paths miss the cycle; the same joint structural+timing
// error methodology applies, with energy scaling as Vdd^2.
//
// Usage: ablation_voltage [--cycles=N] [--seed=S] [--csv=path]
#include "core/error_model.h"
#include "experiments/trace_collector.h"
#include "timing/voltage.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 4000);
  const std::uint64_t seed = args.getU64("seed", 42);

  const auto nominalLib = timing::CellLibrary::generic65();
  const timing::VoltageModel model;
  const std::vector<core::IsaConfig> subset = {
      core::makeIsa(8, 0, 0, 4), core::makeIsa(16, 2, 1, 6),
      core::makeExact(32)};
  const double voltages[] = {1.20, 1.10, 1.05, 1.00, 0.95};

  std::cout << "== Ablation: voltage over-scaling at a fixed 0.3 ns clock "
               "==\n(alpha-power-law delay, energy ~ Vdd^2)\n\n";
  experiments::Table table({"design", "vdd[V]", "delay-factor",
                            "energy-factor", "timing-err-rate",
                            "joint-rms[%]"});
  for (const auto& cfg : subset) {
    for (const double vdd : voltages) {
      // Scale the library, re-synthesize timing at that voltage, relax
      // slack against the unchanged 0.3 ns constraint at nominal voltage.
      circuits::SynthesisOptions synth;
      synth.relaxSlack = true;
      auto design = circuits::synthesize(cfg, nominalLib, synth);
      // Derate the relaxed annotation to the scaled voltage.
      const double factor = timing::voltageDelayFactor(vdd, model);
      for (std::uint32_t g = 0; g < design.netlist.gateCount(); ++g) {
        design.delays.scale(netlist::GateId{g}, factor);
      }

      auto workload = experiments::makeWorkload("uniform", 32, seed);
      const auto trace =
          experiments::collectTrace(design, 0.3, *workload, cycles);
      core::ErrorCombination combo;
      std::uint64_t timingErrors = 0;
      for (const auto& rec : trace) {
        combo.add(core::OutputTriple{rec.diamondValue(32),
                                     rec.goldValue(32),
                                     rec.silverValue(32)});
        timingErrors += rec.silverValue(32) != rec.goldValue(32);
      }
      table.addRow(
          {cfg.name(), experiments::formatFixed(vdd, 2),
           experiments::formatFixed(factor, 3),
           experiments::formatFixed(timing::voltageEnergyFactor(vdd, model),
                                    3),
           experiments::formatSci(
               static_cast<double>(timingErrors) /
                   static_cast<double>(trace.size()),
               2),
           experiments::formatSci(experiments::displayFloor(
               combo.relJoint().rms() * 100.0), 2)});
    }
  }
  bench::emit(table, args);
  std::cout << "\nSpeculative designs tolerate deeper voltage scaling than "
               "the exact adder at iso-clock, mirroring the overclocking "
               "result.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}
