// Table I (implied by Sec. V-A): characterization of the twelve designs —
// chosen sub-adder topology, critical delay against the 0.3 ns constraint,
// area and gate count. Regenerates the design-selection context of the
// paper ("the best implementations fitting the 0.3 ns timing constraint").
//
// Usage: table1_designs [--relax] [--csv=path]
#include "bench_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace oisa;
  const experiments::ArgParser args(argc, argv);
  const auto designs = bench::synthesizeAll(args);

  std::cout << "== Table I: paper design points synthesized at 0.3 ns ==\n\n";
  experiments::Table table({"design", "paths", "topology", "critical[ns]",
                            "slack[ns]", "area[NAND2]", "gates", "meets"});
  for (const auto& d : designs) {
    table.addRow({d.config.name(),
                  std::to_string(d.config.pathCount()),
                  std::string(circuits::topologyName(d.topology)),
                  experiments::formatFixed(d.criticalDelayNs, 4),
                  experiments::formatFixed(0.3 - d.criticalDelayNs, 4),
                  experiments::formatFixed(d.areaNand2, 1),
                  std::to_string(d.netlist.gateCount()),
                  d.meetsTiming ? "yes" : "NO"});
  }
  bench::emit(table, args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return oisa::bench::runGuarded([&] { return run(argc, argv); });
}
