// AVX2 dispatch TU — the only oisa_netlist object compiled with -mavx2.
// It must stay minimal: anything instantiated here is compiled with vector
// flags, so only the LaneBlock<256, Avx2> engine variant may live here.
// (The 64-lane reference carries an `extern template` declaration, so
// including the engine header cannot re-emit it with the wrong flags.)
#if defined(__AVX2__)

#include "netlist/lane_width.h"

namespace oisa::netlist::detail {

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx2(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return std::make_unique<BatchEvaluatorT<LaneBlock<256, LaneArch::Avx2>>>(
      std::move(compiled));
}

}  // namespace oisa::netlist::detail

#endif  // __AVX2__
