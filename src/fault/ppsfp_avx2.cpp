// AVX2 dispatch TU — the only oisa_fault object compiled with -mavx2.
// Only the LaneBlock<256, Avx2> engine variant may be instantiated here.
#if defined(__AVX2__)

#include "fault/ppsfp_dispatch.h"

namespace oisa::fault::detail {

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngineAvx2(
    std::shared_ptr<const netlist::CompiledNetlist> compiled) {
  using Block = netlist::LaneBlock<256, netlist::LaneArch::Avx2>;
  return std::make_unique<PpsfpEngineT<Block>>(std::move(compiled));
}

}  // namespace oisa::fault::detail

#endif  // __AVX2__
