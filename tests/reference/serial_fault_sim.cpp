#include "reference/serial_fault_sim.h"

#include <stdexcept>
#include <string>

namespace oisa::fault {

using netlist::CompiledNetlist;

SerialFaultSimulator::SerialFaultSimulator(
    std::shared_ptr<const CompiledNetlist> compiled)
    : compiled_(std::move(compiled)) {
  if (!compiled_ || !compiled_->acyclic()) {
    throw std::runtime_error(
        "SerialFaultSimulator: fault simulation needs an acyclic netlist");
  }
}

void SerialFaultSimulator::setPattern(
    std::span<const std::uint8_t> inputBits) {
  pattern_.assign(inputBits.begin(), inputBits.end());
  simulate(pattern_, nullptr, good_);
}

std::vector<std::uint8_t> SerialFaultSimulator::goodOutputs() const {
  const auto pos = compiled_->outputNets();
  std::vector<std::uint8_t> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) out[i] = good_[pos[i]];
  return out;
}

std::vector<std::uint8_t> SerialFaultSimulator::faultyOutputs(
    const Fault& f) const {
  simulate(pattern_, &f, scratch_);
  const auto pos = compiled_->outputNets();
  std::vector<std::uint8_t> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) out[i] = scratch_[pos[i]];
  return out;
}

bool SerialFaultSimulator::detects(const Fault& f) const {
  simulate(pattern_, &f, scratch_);
  for (const std::uint32_t po : compiled_->outputNets()) {
    if (scratch_[po] != good_[po]) return true;
  }
  return false;
}

void SerialFaultSimulator::simulate(std::span<const std::uint8_t> inputBits,
                                    const Fault* f,
                                    std::vector<std::uint8_t>& values) const {
  const auto pis = compiled_->inputNets();
  if (inputBits.size() != pis.size()) {
    throw std::invalid_argument(
        "SerialFaultSimulator: expected " + std::to_string(pis.size()) +
        " input bits, got " + std::to_string(inputBits.size()));
  }
  // A stem fault overrides its net everywhere; a branch fault overrides
  // only the pins of the one reader gate addressed by the CSR entry.
  const bool stem = f != nullptr && f->isStem();
  const std::uint8_t stuck =
      f != nullptr && f->stuck == StuckAt::SA1 ? 1 : 0;
  std::uint32_t branchGate = 0xffffffff;
  std::uint32_t branchPins = 0;
  if (f != nullptr && !f->isStem()) {
    const std::uint32_t entry = compiled_->readers()[f->branch];
    branchGate = entry >> 3;
    branchPins = entry & 7u;
  }

  values.assign(compiled_->netCount(), 0);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values[pis[i]] = inputBits[i] ? 1 : 0;
  }
  if (stem) values[f->net] = stuck;
  for (const std::uint32_t gi : compiled_->topologicalOrder()) {
    const CompiledNetlist::GateRec& g = compiled_->gate(gi);
    unsigned a = values[g.in[0]];
    unsigned b = values[g.in[1]];
    unsigned c = values[g.in[2]];
    if (gi == branchGate) {
      if ((branchPins & 1u) != 0) a = stuck;
      if ((branchPins & 2u) != 0) b = stuck;
      if ((branchPins & 4u) != 0) c = stuck;
    }
    const unsigned minterm = a | (b << 1) | (c << 2);
    values[g.out] = static_cast<std::uint8_t>((g.truth >> minterm) & 1u);
    if (stem && g.out == f->net) values[g.out] = stuck;
  }
}

}  // namespace oisa::fault
