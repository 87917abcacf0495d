#include "fault/ppsfp_dispatch.h"

#include <stdexcept>

namespace oisa::fault {

using netlist::LaneArch;
using netlist::LaneSelection;

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled) {
  return makePpsfpEngine(std::move(compiled),
                         netlist::defaultLaneSelection());
}

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngine(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    LaneSelection sel) {
  if (!netlist::cpuSupportsLaneArch(sel.arch)) {
    throw std::invalid_argument("makePpsfpEngine: variant " +
                                netlist::laneSelectionName(sel) +
                                " is not runnable on this build/CPU");
  }
#if defined(OISA_HAVE_AVX2)
  if (sel.arch == LaneArch::Avx2) {
    return detail::makePpsfpEngineAvx2(std::move(compiled));
  }
#endif
#if defined(OISA_HAVE_AVX512)
  if (sel.arch == LaneArch::Avx512) {
    return detail::makePpsfpEngineAvx512(std::move(compiled));
  }
#endif
  return std::make_unique<PpsfpEngine>(std::move(compiled));
}

}  // namespace oisa::fault
