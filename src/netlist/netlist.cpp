#include "netlist/netlist.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace oisa::netlist {

std::size_t GateHistogram::total() const noexcept {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

NetId Netlist::makeNet(std::string name, DriverKind driver,
                       GateId driverGate) {
  NetId id{static_cast<std::uint32_t>(nets_.size())};
  nets_.push_back(Net{std::move(name), driver, driverGate});
  return id;
}

NetId Netlist::input(std::string name) {
  NetId id = makeNet(std::move(name), DriverKind::PrimaryInput, GateId{});
  inputs_.push_back(id);
  return id;
}

NetId Netlist::gate(GateKind kind, std::span<const NetId> ins,
                    std::string outName) {
  const auto arity = static_cast<std::size_t>(gateArity(kind));
  if (ins.size() != arity) {
    throw std::invalid_argument("Netlist::gate: wrong input count for " +
                                std::string(gateName(kind)));
  }
  for (NetId in : ins) {
    if (!in.valid() || in.value >= nets_.size()) {
      throw std::invalid_argument("Netlist::gate: invalid input net");
    }
  }
  GateId gid{static_cast<std::uint32_t>(gates_.size())};
  Gate g;
  g.kind = kind;
  std::copy(ins.begin(), ins.end(), g.in.begin());
  if (outName.empty()) {
    outName = std::string(gateName(kind)) + "_" + std::to_string(gid.value);
  }
  g.out = makeNet(std::move(outName), DriverKind::Gate, gid);
  gates_.push_back(g);
  return gates_.back().out;
}

NetId Netlist::gate1(GateKind kind, NetId a, std::string outName) {
  const std::array<NetId, 1> ins{a};
  return gate(kind, ins, std::move(outName));
}

NetId Netlist::gate2(GateKind kind, NetId a, NetId b, std::string outName) {
  const std::array<NetId, 2> ins{a, b};
  return gate(kind, ins, std::move(outName));
}

NetId Netlist::gate3(GateKind kind, NetId a, NetId b, NetId c,
                     std::string outName) {
  const std::array<NetId, 3> ins{a, b, c};
  return gate(kind, ins, std::move(outName));
}

NetId Netlist::constant(bool value) {
  auto& cached = value ? const1_ : const0_;
  if (!cached) {
    cached = gate(value ? GateKind::Const1 : GateKind::Const0, {},
                  value ? "const1" : "const0");
  }
  return *cached;
}

void Netlist::output(std::string name, NetId net) {
  if (!net.valid() || net.value >= nets_.size()) {
    throw std::invalid_argument("Netlist::output: invalid net");
  }
  outputs_.push_back(net);
  outputNames_.push_back(std::move(name));
}

std::vector<std::vector<GateId>> Netlist::fanoutMap() const {
  std::vector<std::vector<GateId>> fanout(nets_.size());
  for (std::uint32_t gi = 0; gi < gates_.size(); ++gi) {
    for (NetId in : gates_[gi].inputs()) {
      fanout[in.value].push_back(GateId{gi});
    }
  }
  return fanout;
}

std::vector<std::uint32_t> Netlist::fanoutCounts() const {
  std::vector<std::uint32_t> counts(nets_.size(), 0);
  for (const Gate& g : gates_) {
    for (NetId in : g.inputs()) ++counts[in.value];
  }
  for (NetId out : outputs_) ++counts[out.value];
  return counts;
}

GateHistogram Netlist::histogram() const {
  GateHistogram h;
  for (const Gate& g : gates_) {
    ++h.counts[static_cast<std::size_t>(g.kind)];
  }
  return h;
}

}  // namespace oisa::netlist
