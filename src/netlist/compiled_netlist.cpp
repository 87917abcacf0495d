#include "netlist/compiled_netlist.h"

namespace oisa::netlist {

CompiledNetlist::CompiledNetlist(const Netlist& nl)
    : nl_(&nl), netCount_(nl.netCount()) {
  inputNets_.reserve(nl.primaryInputs().size());
  for (const NetId pi : nl.primaryInputs()) inputNets_.push_back(pi.value);
  outputNets_.reserve(nl.primaryOutputs().size());
  for (const NetId po : nl.primaryOutputs()) outputNets_.push_back(po.value);

  // Dense gate records: input/output net indices plus the gate function as
  // an 8-entry truth table. Unused input slots alias net 0 so engines can
  // gather all three operands unconditionally.
  gates_.resize(nl.gateCount());
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    const Gate& g = nl.gateAt(GateId{gi});
    GateRec& rec = gates_[gi];
    rec.kind = g.kind;
    rec.out = g.out.value;
    const auto ins = g.inputs();
    for (std::size_t pin = 0; pin < ins.size(); ++pin) {
      rec.in[pin] = ins[pin].value;
    }
    std::uint8_t truth = 0;
    for (unsigned m = 0; m < 8; ++m) {
      if (evalGate(g.kind, (m & 1) != 0, (m & 2) != 0, (m & 4) != 0)) {
        truth = static_cast<std::uint8_t>(truth | (1u << m));
      }
    }
    rec.truth = truth;
  }

  // CSR fanout with merged multi-pin entries: a net wired to several pins
  // of one gate becomes a single entry carrying the combined minterm mask,
  // so one committed change updates the whole minterm before the gate is
  // re-evaluated. Per-gate pins are visited together, which makes the
  // merge a one-entry lookback.
  fanoutOffsets_.assign(netCount_ + 1, 0);
  constexpr std::uint32_t kNoGate = 0xffffffff;
  std::vector<std::uint32_t> lastGate(netCount_, kNoGate);
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    for (const NetId in : nl.gateAt(GateId{gi}).inputs()) {
      if (lastGate[in.value] != gi) {
        lastGate[in.value] = gi;
        ++fanoutOffsets_[in.value + 1];
      }
    }
  }
  for (std::size_t i = 1; i < fanoutOffsets_.size(); ++i) {
    fanoutOffsets_[i] += fanoutOffsets_[i - 1];
  }
  readers_.resize(fanoutOffsets_.back());
  std::vector<std::uint32_t> cursor(fanoutOffsets_.begin(),
                                    fanoutOffsets_.end() - 1);
  std::fill(lastGate.begin(), lastGate.end(), kNoGate);
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    const auto ins = nl.gateAt(GateId{gi}).inputs();
    for (std::size_t pin = 0; pin < ins.size(); ++pin) {
      const std::uint32_t net = ins[pin].value;
      const auto mask = static_cast<std::uint32_t>(1u << pin);
      if (lastGate[net] == gi) {
        readers_[cursor[net] - 1] |= mask;  // merge multi-pin connection
      } else {
        lastGate[net] = gi;
        readers_[cursor[net]++] = (gi << 3) | mask;
      }
    }
  }

  // Settled all-inputs-low state: one zero-delay sweep in gate order
  // (this also assigns constant nets their value).
  zeroState_.assign(netCount_, 0);
  for (const GateRec& g : gates_) {
    const unsigned minterm = static_cast<unsigned>(zeroState_[g.in[0]]) |
                             (static_cast<unsigned>(zeroState_[g.in[1]]) << 1) |
                             (static_cast<unsigned>(zeroState_[g.in[2]]) << 2);
    zeroState_[g.out] = static_cast<std::uint8_t>((g.truth >> minterm) & 1u);
  }
}

}  // namespace oisa::netlist
