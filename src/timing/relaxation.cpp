#include "timing/relaxation.h"

#include <algorithm>
#include <vector>

#include "timing/sta.h"

namespace oisa::timing {

using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;
using netlist::NetId;

namespace {

// Fraction of a gate's share of its path slack taken per round.
constexpr double kDamping = 0.5;
// Rounds of the zero-slack loop.
constexpr int kIterations = 12;

}  // namespace

RelaxationReport relaxSlack(const Netlist& nl, DelayAnnotation& delays,
                            double periodNs, double maxSlowdown) {
  RelaxationReport report;
  report.criticalBeforeNs = criticalDelayNs(nl, delays);

  // Number of gates on the longest PI->PO path through each gate, used to
  // split a path's slack fairly among its gates. Gate order is a
  // topological order, so one sweep each way settles both depths.
  const auto gates = static_cast<std::uint32_t>(nl.gateCount());
  std::vector<int> fwdDepth(nl.netCount(), 0);
  std::vector<int> bwdDepth(gates, 1);
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    const Gate& g = nl.gateAt(GateId{gi});
    int d = 0;
    for (NetId in : g.inputs()) d = std::max(d, fwdDepth[in.value]);
    fwdDepth[g.out.value] = d + 1;
  }
  std::vector<int> netBwd(nl.netCount(), 0);
  for (std::uint32_t gi = gates; gi-- > 0;) {
    const Gate& g = nl.gateAt(GateId{gi});
    bwdDepth[gi] = netBwd[g.out.value] + 1;
    for (NetId in : g.inputs()) {
      netBwd[in.value] = std::max(netBwd[in.value], bwdDepth[gi]);
    }
  }

  std::vector<double> original(nl.gateCount());
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    original[gi] = delays.delayNs(GateId{gi});
  }

  for (int round = 0; round < kIterations; ++round) {
    const StaResult sta = analyze(nl, delays, periodNs);
    bool changed = false;
    for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
      const GateId gid{gi};
      const double slack = sta.gateSlack[gi];
      if (slack <= 1e-6) continue;
      const Gate& g = nl.gateAt(gid);
      const int pathGates =
          std::max(1, fwdDepth[g.out.value] - 1 + bwdDepth[gi]);
      const double share =
          kDamping * slack / static_cast<double>(pathGates);
      const double cap = original[gi] * maxSlowdown;
      const double next = std::min(delays.delayNs(gid) + share, cap);
      if (next > delays.delayNs(gid) + 1e-9) {
        delays.setDelayNs(gid, next);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Safety: the damped shares should never overshoot, but guard the
  // sign-off invariant explicitly (only if the design met timing before).
  if (report.criticalBeforeNs <= periodNs) {
    while (criticalDelayNs(nl, delays) > periodNs) {
      for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
        const GateId gid{gi};
        const double d = delays.delayNs(gid);
        if (d > original[gi]) {
          delays.setDelayNs(gid,
                            std::max(original[gi], d * 0.98));
        }
      }
    }
  }

  report.criticalAfterNs = criticalDelayNs(nl, delays);
  double slowdownSum = 0.0;
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    slowdownSum += original[gi] > 0.0
                       ? delays.delayNs(GateId{gi}) / original[gi]
                       : 1.0;
  }
  report.meanSlowdown =
      nl.gateCount() ? slowdownSum / static_cast<double>(nl.gateCount()) : 1.0;
  return report;
}

}  // namespace oisa::timing
