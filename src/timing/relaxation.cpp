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

}  // namespace

RelaxationReport relaxSlack(const Netlist& nl, DelayAnnotation& delays,
                            const RelaxationOptions& options) {
  const auto order = nl.topologicalOrder();
  RelaxationReport report;
  report.criticalBeforeNs = criticalDelayNs(nl, delays);

  // Number of gates on the longest PI->PO path through each gate, used to
  // split a path's slack fairly among its gates.
  std::vector<int> fwdDepth(nl.netCount(), 0);
  std::vector<int> bwdDepth(nl.gateCount(), 1);
  for (GateId gid : order) {
    const Gate& g = nl.gateAt(gid);
    int d = 0;
    for (NetId in : g.inputs()) d = std::max(d, fwdDepth[in.value]);
    fwdDepth[g.out.value] = d + 1;
  }
  std::vector<int> netBwd(nl.netCount(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& g = nl.gateAt(*it);
    bwdDepth[it->value] = netBwd[g.out.value] + 1;
    for (NetId in : g.inputs()) {
      netBwd[in.value] = std::max(netBwd[in.value], bwdDepth[it->value]);
    }
  }

  std::vector<double> original(nl.gateCount());
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    original[gi] = delays.delayNs(GateId{gi});
  }

  for (int round = 0; round < options.iterations; ++round) {
    const StaResult sta = analyze(nl, delays, options.targetPeriodNs);
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
      const double cap = original[gi] * options.maxSlowdown;
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
  if (report.criticalBeforeNs <= options.targetPeriodNs) {
    while (criticalDelayNs(nl, delays) > options.targetPeriodNs) {
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
