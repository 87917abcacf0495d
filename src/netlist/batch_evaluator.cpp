#include "netlist/batch_evaluator.h"

namespace oisa::netlist {

template class BatchEvaluatorT<LaneBlock64>;

}  // namespace oisa::netlist
