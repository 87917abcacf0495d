// Table III (extension): area / delay / power / energy characterization —
// the paper's energy-efficiency motivation quantified. Dynamic power comes
// from real switching activity in the event-driven simulator; leakage from
// cell areas. Savings are reported against the exact adder.
//
// Usage: table3_power [--cycles=N] [--seed=S] [--threads=N] [--csv=path]
#include <optional>
#include <random>

#include "experiments/grid_scheduler.h"
#include "timing/power.h"

#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const std::uint64_t cycles = args.getU64("cycles", 400);
  const std::uint64_t seed = args.getU64("seed", 42);

  const auto lib = timing::CellLibrary::generic65();
  const auto power = timing::PowerLibrary::generic65();

  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::uint8_t>> stimuli;
  stimuli.reserve(cycles + 1);
  for (std::uint64_t i = 0; i <= cycles; ++i) {
    stimuli.push_back(circuits::packOperands(rng(), rng(), false, 32));
  }

  std::cout << "== Table III: area / delay / power at 0.3 ns, " << cycles
            << " random cycles ==\n\n";
  experiments::Table table({"design", "area[NAND2]", "critical[ns]",
                            "dyn[uW]", "leak[uW]", "total[uW]",
                            "energy/op[fJ]", "vs exact[%]"});

  // Per-design synthesis + power simulation is independent (the stimulus
  // vector is shared read-only), so fan it out across the pool; the exact
  // adder's baseline energy is picked out afterwards.
  const auto configs = core::paperDesigns();
  std::vector<
      std::optional<std::pair<circuits::SynthesizedDesign, timing::PowerReport>>>
      results(configs.size());
  experiments::GridScheduler pool(bench::threadsOption(args));
  pool.run(configs.size(), [&](std::size_t i) {
    auto design =
        circuits::synthesize(configs[i], lib, circuits::SynthesisOptions{});
    const auto report =
        measurePower(design.netlist, design.delays, power, 0.3, stimuli);
    results[i] = {std::move(design), report};
  });
  double exactEnergy = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].exact) exactEnergy = results[i]->second.energyPerOpFj;
  }
  for (const auto& entry : results) {
    const auto& [design, report] = *entry;
    const double savings =
        exactEnergy > 0.0
            ? (1.0 - report.energyPerOpFj / exactEnergy) * 100.0
            : 0.0;
    table.addRow({design.config.name(),
                  experiments::formatFixed(design.areaNand2, 0),
                  experiments::formatFixed(design.criticalDelayNs, 4),
                  experiments::formatFixed(report.dynamicPowerUw, 1),
                  experiments::formatFixed(report.leakagePowerUw, 2),
                  experiments::formatFixed(report.totalPowerUw, 1),
                  experiments::formatFixed(report.energyPerOpFj, 1),
                  experiments::formatFixed(savings, 1)});
  }
  bench::emit(table, args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}
