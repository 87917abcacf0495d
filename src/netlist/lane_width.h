// oisa_netlist: runtime lane-width selection.
//
// The two templated engines (BatchEvaluatorT, fault::PpsfpEngineT) are
// compile-time constructs; this header is the runtime face. A
// LaneSelection names one engine variant by its arch, and the arch fixes
// the width: the 64-lane portable reference, 256 lanes on AVX2, 512 on
// AVX-512. The CPU alone picks the default, the widest variant it
// supports. Tests and micro benches build the other variants the host can
// run by passing a LaneSelection to the factories explicitly.
//
// AnyBatchEvaluator (netlist/batch_evaluator.h) is the width-erased
// evaluator the experiment layer holds; the fault layer has the matching
// AnyPpsfpEngine (fault/ppsfp.h). Both speak flat uint64 spans with
// wordsPerNet() words per net, so the 64-lane data layout generalizes by
// a stride, not a new format. The timed lane wheel (timing/lane_sim.h)
// has one width, 64 lanes, and no dispatch. The same CPU check picks the
// kernels of netlist/bitops.h (transpose64, BulkMt19937_64), whose
// portable bodies and selection live in lane_width.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/batch_evaluator.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_block.h"

namespace oisa::netlist {

/// One dispatchable engine variant. The arch fixes the lane count:
/// 64 portable, 256 AVX2, 512 AVX-512.
struct LaneSelection {
  LaneArch arch = LaneArch::Portable;

  [[nodiscard]] std::size_t lanes() const noexcept {
    return arch == LaneArch::Avx512 ? 512 : arch == LaneArch::Avx2 ? 256 : 64;
  }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept {
    return lanes() / 64;
  }
  [[nodiscard]] friend bool operator==(const LaneSelection&,
                                       const LaneSelection&) noexcept =
      default;
};

/// Human-readable name: "64", "256-avx2" or "512-avx512".
[[nodiscard]] std::string laneSelectionName(LaneSelection sel);

/// True when this CPU can execute the given flavor (Portable: always).
[[nodiscard]] bool cpuSupportsLaneArch(LaneArch arch);

/// Every variant this build + CPU can run, narrowest first. The 64-lane
/// reference is always element 0; intrinsic variants appear only when
/// both the build flags and the CPU support them.
[[nodiscard]] std::vector<LaneSelection> availableLaneSelections();

/// The widest variant this CPU supports: the last element of
/// availableLaneSelections().
[[nodiscard]] LaneSelection defaultLaneSelection();

/// Builds the evaluator variant for `sel` (default:
/// defaultLaneSelection()). Throws std::invalid_argument for a variant
/// this build/CPU cannot run.
[[nodiscard]] std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled);
[[nodiscard]] std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluator(
    std::shared_ptr<const CompiledNetlist> compiled, LaneSelection sel);

namespace detail {

// Implemented in the per-arch dispatch TUs (the only objects compiled with
// -mavx2 / -mavx512f). Declared unconditionally; defined only when CMake
// detected the flags (OISA_HAVE_AVX2 / OISA_HAVE_AVX512), and called only
// after a cpuSupportsLaneArch() check.
[[nodiscard]] std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx2(
    std::shared_ptr<const CompiledNetlist> compiled);
[[nodiscard]] std::unique_ptr<AnyBatchEvaluator> makeBatchEvaluatorAvx512(
    std::shared_ptr<const CompiledNetlist> compiled);

}  // namespace detail

}  // namespace oisa::netlist
