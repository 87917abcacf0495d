// AVX-512 dispatch TU — the only oisa_netlist object compiled with
// -mavx512f. Same minimality rule as lane_simd_avx2.cpp.
#if defined(__AVX512F__)

#include "netlist/lane_width.h"

namespace oisa::netlist::detail {

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx512(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return std::make_unique<BatchEvaluatorT<LaneBlock<512, LaneArch::Avx512>>>(
      std::move(compiled));
}

}  // namespace oisa::netlist::detail

#endif  // __AVX512F__
