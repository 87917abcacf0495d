#include "reference/evaluator.h"

#include <stdexcept>

namespace oisa::netlist {

Evaluator::Evaluator(const Netlist& nl) : nl_(nl), order_(nl.topologicalOrder()) {}

std::vector<std::uint8_t> Evaluator::evaluate(
    std::span<const std::uint8_t> inputValues) const {
  const auto pis = nl_.primaryInputs();
  if (inputValues.size() != pis.size()) {
    throw std::invalid_argument("Evaluator: expected " +
                                std::to_string(pis.size()) + " inputs, got " +
                                std::to_string(inputValues.size()));
  }
  std::vector<std::uint8_t> values(nl_.netCount(), 0);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values[pis[i].value] = inputValues[i] ? 1 : 0;
  }
  for (GateId gid : order_) {
    const Gate& g = nl_.gateAt(gid);
    const auto ins = g.inputs();
    const bool a = !ins.empty() && values[ins[0].value] != 0;
    const bool b = ins.size() > 1 && values[ins[1].value] != 0;
    const bool c = ins.size() > 2 && values[ins[2].value] != 0;
    values[g.out.value] = evalGate(g.kind, a, b, c) ? 1 : 0;
  }
  return values;
}

std::vector<std::uint8_t> Evaluator::evaluateOutputs(
    std::span<const std::uint8_t> inputValues) const {
  const auto values = evaluate(inputValues);
  const auto pos = nl_.primaryOutputs();
  std::vector<std::uint8_t> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    out[i] = values[pos[i].value];
  }
  return out;
}

std::uint64_t Evaluator::evaluateWord(std::uint64_t word) const {
  const auto pis = nl_.primaryInputs();
  const auto pos = nl_.primaryOutputs();
  if (pis.size() > 64 || pos.size() > 64) {
    throw std::invalid_argument("Evaluator::evaluateWord: > 64 ports");
  }
  std::vector<std::uint8_t> in(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) {
    in[i] = static_cast<std::uint8_t>((word >> i) & 1u);
  }
  const auto out = evaluateOutputs(in);
  std::uint64_t packed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) packed |= (std::uint64_t{1} << i);
  }
  return packed;
}

}  // namespace oisa::netlist
