#include "fault/ppsfp.h"

namespace oisa::fault {

template class PpsfpEngineT<netlist::LaneBlock64>;

}  // namespace oisa::fault
