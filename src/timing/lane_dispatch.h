// oisa_timing: width-erased interfaces over the templated timed engines,
// plus the factories the runtime lane-width dispatcher (see
// netlist/lane_width.h) routes through. Callers that drive the lane
// wheel directly (the differential tests, the benchmark's timed rebuild)
// hold these instead of concrete LaneTimedSimulatorT widths.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/compiled_netlist.h"
#include "netlist/lane_width.h"
#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// Width-erased LaneTimedSimulatorT. All spans are lane-major with
/// wordsPerNet() uint64 words per input/output/net; sub-word j of a net
/// holds lanes [64j, 64j + 64).
class AnyLaneSimulator {
 public:
  virtual ~AnyLaneSimulator() = default;

  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  virtual void applyInputs(std::span<const std::uint64_t> inputWords) = 0;
  virtual void advancePs(TimePs deltaPs) = 0;
  virtual TimePs settlePs() = 0;
  virtual void sampleOutputsInto(std::vector<std::uint64_t>& out) const = 0;
  virtual void reset() = 0;
  /// 64-bit mask/bits pattern, applied alike to every 64-lane sub-word
  /// (matches LaneTimedSimulatorT::forceNet).
  virtual void forceNet(netlist::NetId net, std::uint64_t laneMask,
                        std::uint64_t bits) = 0;
  virtual void clearNetForces() = 0;
  virtual void setEventBudget(std::uint64_t maxEventsPerCall) = 0;
  [[nodiscard]] virtual std::uint64_t eventsProcessed() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t laneTransitionsCommitted()
      const noexcept = 0;
  [[nodiscard]] virtual const std::vector<std::uint64_t>& netWords()
      const noexcept = 0;
  [[nodiscard]] virtual TimePs nowPs() const noexcept = 0;
  [[nodiscard]] virtual const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept = 0;
};

/// Width-erased LaneClockedSamplerT.
class AnyLaneSampler {
 public:
  virtual ~AnyLaneSampler() = default;

  [[nodiscard]] virtual netlist::LaneSelection selection() const noexcept = 0;
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  virtual void initialize(std::span<const std::uint64_t> inputWords) = 0;
  virtual void stepInto(std::span<const std::uint64_t> inputWords,
                        std::vector<std::uint64_t>& out) = 0;
  [[nodiscard]] virtual double periodNs() const noexcept = 0;
  [[nodiscard]] virtual TimePs periodPs() const noexcept = 0;
  [[nodiscard]] virtual AnyLaneSimulator& simulator() noexcept = 0;
};

/// Builds the clocked-sampler variant for `sel` (default:
/// netlist::selectLaneWidth()). Throws std::invalid_argument for a
/// variant this build/CPU cannot run.
[[nodiscard]] std::unique_ptr<AnyLaneSampler> makeLaneSampler(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs);
[[nodiscard]] std::unique_ptr<AnyLaneSampler> makeLaneSampler(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs,
    netlist::LaneSelection sel);

namespace detail {

// Per-arch factories, defined in the -mavx2 / -mavx512f dispatch TUs.
[[nodiscard]] std::unique_ptr<AnyLaneSampler> makeLaneSamplerAvx2(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs);
[[nodiscard]] std::unique_ptr<AnyLaneSampler> makeLaneSamplerAvx512(
    std::shared_ptr<const netlist::CompiledNetlist> compiled,
    const DelayAnnotation& delays, double periodNs);

}  // namespace detail

}  // namespace oisa::timing
