#include "timing/power.h"

#include <stdexcept>

#include "timing/lane_sim.h"

namespace oisa::timing {

PowerLibrary PowerLibrary::generic65() {
  using netlist::GateKind;
  PowerLibrary lib;
  auto set = [&lib](GateKind kind, double switching, double perFanout,
                    double leakage) {
    lib.cell(kind) = CellPower{switching, perFanout, leakage};
  };
  // Switching energy roughly tracks cell size; leakage tracks area.
  set(GateKind::Const0, 0.0, 0.0, 0.0);
  set(GateKind::Const1, 0.0, 0.0, 0.0);
  set(GateKind::Buf, 0.9, 0.12, 1.4);
  set(GateKind::Inv, 0.5, 0.12, 0.7);
  set(GateKind::And2, 1.2, 0.15, 2.1);
  set(GateKind::Or2, 1.2, 0.15, 2.1);
  set(GateKind::Nand2, 0.8, 0.15, 1.4);
  set(GateKind::Nor2, 0.8, 0.15, 1.4);
  set(GateKind::Xor2, 2.1, 0.18, 3.5);
  set(GateKind::Xnor2, 2.1, 0.18, 3.5);
  set(GateKind::And3, 1.7, 0.16, 2.8);
  set(GateKind::Or3, 1.7, 0.16, 2.8);
  set(GateKind::Aoi21, 1.3, 0.16, 2.1);
  set(GateKind::Oai21, 1.3, 0.16, 2.1);
  set(GateKind::Mux2, 1.6, 0.17, 2.8);
  set(GateKind::Maj3, 1.9, 0.17, 3.5);
  return lib;
}

PowerReport measurePower(const netlist::Netlist& nl,
                         const DelayAnnotation& delays,
                         const PowerLibrary& power, double periodNs,
                         std::span<const std::vector<std::uint8_t>> stimuli) {
  if (stimuli.size() < 2) {
    throw std::invalid_argument(
        "measurePower: need a reset vector plus at least one cycle");
  }
  // Per-net toggle energy: driver cell's switching cost including its
  // fanout load (inputs toggling is billed at the driving cell).
  const auto fanout = nl.fanoutCounts();
  std::vector<double> toggleEnergy(nl.netCount(), 0.0);
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    const netlist::Gate& g = nl.gateAt(netlist::GateId{gi});
    const CellPower& cp = power.cell(g.kind);
    const unsigned loads = fanout[g.out.value];
    const unsigned extra = loads > 1 ? loads - 1 : 0;
    toggleEnergy[g.out.value] =
        cp.switchingFj + cp.perFanoutFj * static_cast<double>(extra);
  }

  // The stream runs in lane 0 and lanes 1-63 stay at the reset state, so
  // every commit is a lane-0 commit and energy sums in commit order.
  LaneTimedSimulator sim(nl, delays);
  double energy = 0.0;
  std::uint64_t toggles = 0;
  bool billing = false;
  sim.setChangeObserver([&](TimePs, netlist::NetId net, std::uint64_t) {
    if (!billing) return;
    energy += toggleEnergy[net.value];
    ++toggles;
  });
  std::vector<std::uint64_t> words;
  const auto apply = [&](std::span<const std::uint8_t> stimulus) {
    words.assign(stimulus.begin(), stimulus.end());
    for (auto& w : words) w = w != 0;
    sim.applyInputs(words);
  };

  apply(stimuli[0]);
  (void)sim.settlePs();
  billing = true;
  const TimePs periodPs = quantizeSpanPs(periodNs);
  for (std::size_t i = 1; i < stimuli.size(); ++i) {
    apply(stimuli[i]);
    sim.advancePs(periodPs);
  }
  (void)sim.settlePs();  // bill the tail of the last cycle

  PowerReport report;
  report.cycles = stimuli.size() - 1;
  report.toggles = toggles;
  report.dynamicEnergyFj = energy;
  report.energyPerOpFj = energy / static_cast<double>(report.cycles);
  // fJ / ns = uW.
  report.dynamicPowerUw =
      energy / (static_cast<double>(report.cycles) * periodNs);
  double leakageNw = 0.0;
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    leakageNw += power.cell(nl.gateAt(netlist::GateId{gi}).kind).leakageNw;
  }
  report.leakagePowerUw = leakageNw / 1000.0;
  report.totalPowerUw = report.dynamicPowerUw + report.leakagePowerUw;
  report.meanTogglesPerCycle =
      static_cast<double>(toggles) / static_cast<double>(report.cycles);
  return report;
}

}  // namespace oisa::timing
