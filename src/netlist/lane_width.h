// oisa_netlist: runtime lane-width selection + the type-erased evaluator.
//
// The two templated engines (BatchEvaluatorT, fault::PpsfpEngineT) are
// compile-time constructs; this header is the runtime face: a
// LaneSelection names a (width, arch) pair, the dispatcher picks the
// widest one the CPU supports (AVX-512 -> 512, AVX2 -> 256, else the
// 64-lane reference), and the OISA_FORCE_LANE_WIDTH environment variable
// overrides it for testing:
//
//   OISA_FORCE_LANE_WIDTH=64          reference engine
//   OISA_FORCE_LANE_WIDTH=256 / 512   vector width (falls back to the
//                                     portable variant without CPU support)
//   OISA_FORCE_LANE_WIDTH=portable    256-bit portable fallback
//   OISA_FORCE_LANE_WIDTH=portable256 / portable512   explicit portables
//
// AnyBatchEvaluator is the width-erased evaluator the experiment layer
// holds; the fault layer has the matching AnyPpsfpEngine
// (fault/ppsfp_dispatch.h). Both speak flat uint64 spans with
// wordsPerNet() words per net, so the 64-lane data layout generalizes by
// a stride, not a new format. The timed lane wheel (timing/lane_sim.h)
// has one width, 64 lanes, and no dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/compiled_netlist.h"
#include "netlist/lane_block.h"

namespace oisa::netlist {

/// Environment variable consulted by selectLaneWidth().
inline constexpr const char* kLaneWidthEnvVar = "OISA_FORCE_LANE_WIDTH";

/// One dispatchable engine variant: a lane width and the implementation
/// flavor carrying it.
struct LaneSelection {
  std::size_t width = 64;
  LaneArch arch = LaneArch::Portable;

  [[nodiscard]] std::size_t wordsPerNet() const noexcept {
    return width / 64;
  }
  [[nodiscard]] friend bool operator==(const LaneSelection&,
                                       const LaneSelection&) noexcept =
      default;
};

/// Human-readable name, e.g. "64", "256-avx2", "512-portable".
[[nodiscard]] std::string laneSelectionName(LaneSelection sel);

/// True when this CPU can execute the given flavor (Portable: always).
[[nodiscard]] bool cpuSupportsLaneArch(LaneArch arch);

/// Every variant instantiable on this build + CPU, narrowest first. The
/// 64-lane reference is always element 0; intrinsic variants appear only
/// when both the build flags and the CPU support them.
[[nodiscard]] std::vector<LaneSelection> availableLaneSelections();

/// The widest intrinsic variant this CPU supports, else the 64-lane
/// reference. (Portable wide variants are never chosen by default: without
/// vector units they are strictly more work per sweep than 64 lanes.)
[[nodiscard]] LaneSelection defaultLaneSelection();

/// Parses an OISA_FORCE_LANE_WIDTH value. Throws std::invalid_argument on
/// an unknown spec. Forced 256/512 degrade to the portable variant when
/// the build or CPU lacks the vector ISA.
[[nodiscard]] LaneSelection parseLaneWidthSpec(std::string_view spec);

/// defaultLaneSelection(), unless OISA_FORCE_LANE_WIDTH overrides it. Reads
/// the environment on every call so tests can flip widths mid-process.
[[nodiscard]] LaneSelection selectLaneWidth();

/// Width-erased BatchEvaluatorT: the interface TraceCollector and the
/// experiment pipelines program against. Spans are input-/output-/net-major
/// with wordsPerNet() uint64 words per port or net; sub-word j of a net
/// holds lanes [64j, 64j + 64).
class AnyBatchEvaluator {
 public:
  virtual ~AnyBatchEvaluator() = default;

  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  [[nodiscard]] virtual LaneSelection selection() const noexcept = 0;
  virtual void evaluateInto(std::span<const std::uint64_t> inputWords,
                            std::vector<std::uint64_t>& values) const = 0;
  virtual void evaluateOutputsInto(std::span<const std::uint64_t> inputWords,
                                   std::vector<std::uint64_t>& out) const = 0;
  [[nodiscard]] virtual const std::shared_ptr<const CompiledNetlist>&
  compiled() const noexcept = 0;
};

/// Builds the evaluator variant for `sel` (default: selectLaneWidth()).
/// Throws std::invalid_argument for a variant this build/CPU cannot run.
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
