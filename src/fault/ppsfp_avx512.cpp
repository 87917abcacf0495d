// AVX-512 dispatch TU — the only oisa_fault object compiled with
// -mavx512f. Same minimality rule as ppsfp_avx2.cpp.
#if defined(__AVX512F__)

#include "fault/ppsfp_dispatch.h"

namespace oisa::fault::detail {

std::unique_ptr<AnyPpsfpEngine> makePpsfpEngineAvx512(
    std::shared_ptr<const netlist::CompiledNetlist> compiled) {
  using Block = netlist::LaneBlock<512, netlist::LaneArch::Avx512>;
  return std::make_unique<PpsfpEngineT<Block>>(std::move(compiled));
}

}  // namespace oisa::fault::detail

#endif  // __AVX512F__
