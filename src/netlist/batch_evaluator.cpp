#include "netlist/batch_evaluator.h"

#include <stdexcept>

namespace oisa::netlist {

namespace detail {

std::shared_ptr<const CompiledNetlist> requireAcyclicBatch(
    std::shared_ptr<const CompiledNetlist> compiled) {
  if (!compiled || !compiled->acyclic()) {
    throw std::runtime_error(
        "BatchEvaluator: netlist has a combinational cycle");
  }
  return compiled;
}

}  // namespace detail

template class BatchEvaluatorT<LaneBlock64>;

}  // namespace oisa::netlist
