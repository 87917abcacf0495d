#include "timing/sta.h"

#include <algorithm>
#include <limits>

namespace oisa::timing {

using netlist::DriverKind;
using netlist::Gate;
using netlist::GateId;
using netlist::Netlist;
using netlist::NetId;

StaResult analyze(const Netlist& nl, const DelayAnnotation& delays,
                  double periodNs) {
  const auto gates = static_cast<std::uint32_t>(nl.gateCount());
  StaResult r;
  r.periodNs = periodNs;
  r.arrival.assign(nl.netCount(), 0.0);

  // Forward pass in gate order (a topological order): arrival times.
  // Primary inputs and constants arrive at 0.
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    const GateId gid{gi};
    const Gate& g = nl.gateAt(gid);
    double worst = 0.0;
    for (NetId in : g.inputs()) {
      worst = std::max(worst, r.arrival[in.value]);
    }
    r.arrival[g.out.value] = worst + delays.delayNs(gid);
  }
  for (NetId out : nl.primaryOutputs()) {
    r.criticalDelayNs = std::max(r.criticalDelayNs, r.arrival[out.value]);
  }

  // Backward pass: required times per net, slack per gate.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> required(nl.netCount(), kInf);
  for (NetId out : nl.primaryOutputs()) {
    required[out.value] = std::min(required[out.value], periodNs);
  }
  for (std::uint32_t gi = gates; gi-- > 0;) {
    const GateId gid{gi};
    const Gate& g = nl.gateAt(gid);
    const double inRequired = required[g.out.value] - delays.delayNs(gid);
    for (NetId in : g.inputs()) {
      required[in.value] = std::min(required[in.value], inRequired);
    }
  }
  r.gateSlack.assign(gates, kInf);
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    const Gate& g = nl.gateAt(GateId{gi});
    r.gateSlack[gi] = required[g.out.value] - r.arrival[g.out.value];
  }

  // Critical path: backtrack from the worst output through worst inputs.
  NetId worstOut{};
  double worstArrival = -1.0;
  for (NetId out : nl.primaryOutputs()) {
    if (r.arrival[out.value] > worstArrival) {
      worstArrival = r.arrival[out.value];
      worstOut = out;
    }
  }
  std::vector<PathStep> reversed;
  NetId cursor = worstOut;
  while (cursor.valid() && nl.net(cursor).driver == DriverKind::Gate) {
    const GateId gid = nl.net(cursor).driverGate;
    reversed.push_back(PathStep{gid, r.arrival[cursor.value]});
    const Gate& g = nl.gateAt(gid);
    NetId worstIn{};
    double best = -1.0;
    for (NetId in : g.inputs()) {
      if (r.arrival[in.value] > best) {
        best = r.arrival[in.value];
        worstIn = in;
      }
    }
    cursor = worstIn;
  }
  r.criticalPath.assign(reversed.rbegin(), reversed.rend());
  return r;
}

double criticalDelayNs(const Netlist& nl, const DelayAnnotation& delays) {
  return analyze(nl, delays, 0.0).criticalDelayNs;
}

double totalArea(const Netlist& nl, const CellLibrary& lib) {
  double area = 0.0;
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    area += lib.cell(nl.gateAt(GateId{gi}).kind).area;
  }
  return area;
}

}  // namespace oisa::timing
