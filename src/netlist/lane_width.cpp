#include "netlist/lane_width.h"

#include <stdexcept>

namespace oisa::netlist {

std::string laneSelectionName(LaneSelection sel) {
  std::string name = std::to_string(sel.lanes());
  switch (sel.arch) {
    case LaneArch::Portable: break;
    case LaneArch::Avx2: name += "-avx2"; break;
    case LaneArch::Avx512: name += "-avx512"; break;
  }
  return name;
}

bool cpuSupportsLaneArch(LaneArch arch) {
  switch (arch) {
    case LaneArch::Portable: return true;
    case LaneArch::Avx2:
#if defined(OISA_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case LaneArch::Avx512:
#if defined(OISA_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::vector<LaneSelection> availableLaneSelections() {
  std::vector<LaneSelection> out;
  for (const LaneArch arch :
       {LaneArch::Portable, LaneArch::Avx2, LaneArch::Avx512}) {
    if (cpuSupportsLaneArch(arch)) out.push_back({arch});
  }
  return out;
}

LaneSelection defaultLaneSelection() {
  return availableLaneSelections().back();
}

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled) {
  return makeBatchEvaluator(std::move(compiled), defaultLaneSelection());
}

std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled, LaneSelection sel) {
  if (!cpuSupportsLaneArch(sel.arch)) {
    throw std::invalid_argument("makeBatchEvaluator: variant " +
                                laneSelectionName(sel) +
                                " is not runnable on this build/CPU");
  }
#if defined(OISA_HAVE_AVX2)
  if (sel.arch == LaneArch::Avx2) {
    return detail::makeBatchEvaluatorAvx2(std::move(compiled));
  }
#endif
#if defined(OISA_HAVE_AVX512)
  if (sel.arch == LaneArch::Avx512) {
    return detail::makeBatchEvaluatorAvx512(std::move(compiled));
  }
#endif
  return std::make_unique<BatchEvaluator>(std::move(compiled));
}

}  // namespace oisa::netlist
