// oisa_reference: the seed binary-heap event engine.
//
// This is the original TimedSimulator implementation (std::push_heap over
// (time, seq) events, per-sample vector allocation), kept verbatim except
// that event times live on the same integer-picosecond grid as the wheel
// engine — timestamps are integers stored in double, so arithmetic and
// comparisons are exact and the wheel engine must match it event for
// event. Used by the differential tests (tests/wheel_sim_test.cpp) and as
// the baseline of bench/micro_timed_sim.cpp; shipped code uses
// timing::TimedSimulator.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// Reference event-driven simulator: seed heap algorithm, ps time grid.
class HeapSimulator {
 public:
  HeapSimulator(const netlist::Netlist& nl, const DelayAnnotation& delays);

  /// Applies primary-input values at the current simulation time.
  void applyInputs(std::span<const std::uint8_t> inputValues);

  /// Advances simulation, processing all events strictly before
  /// `currentTime + deltaPs`, then sets current time to that instant.
  void advancePs(TimePs deltaPs);

  /// Nanosecond convenience form; the delta quantizes exactly like
  /// TimedSimulator::advance so both engines see identical horizons.
  void advance(double deltaNs) { advancePs(quantizeSpanPs(deltaNs)); }

  /// Processes every pending event. Returns the timestamp of the last
  /// processed event.
  TimePs settlePs();

  /// Current value of each primary output, in declaration order
  /// (allocates per call, like the seed engine).
  [[nodiscard]] std::vector<std::uint8_t> sampleOutputs() const;

  [[nodiscard]] bool netValue(netlist::NetId net) const {
    return values_.at(net.value) != 0;
  }

  [[nodiscard]] TimePs nowPs() const noexcept {
    return static_cast<TimePs>(now_);
  }

  /// Number of committed net changes since construction.
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return eventCount_;
  }

  /// Resets to the all-undefined (zero) state at time 0 with no events.
  void reset();

  /// Observer invoked on every committed net change, as in the seed
  /// engine: (timePs, net, newValue). Kept so the baseline pays the same
  /// per-event branch the seed paid.
  void setChangeObserver(
      std::function<void(double, netlist::NetId, bool)> observer) {
    observer_ = std::move(observer);
  }

 private:
  struct Event {
    double time;  ///< integer picoseconds held in double (exact <= 2^53)
    std::uint32_t net;
    std::uint8_t value;
    std::uint64_t seq;  ///< tie-breaker: same-time events apply in schedule order

    [[nodiscard]] bool operator>(const Event& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void scheduleReaders(netlist::NetId net, double atTime);
  void runUntil(double horizon);  // processes events with time < horizon

  const netlist::Netlist& nl_;
  std::vector<double> delaysPs_;  // quantized, indexed by GateId
  std::vector<std::vector<netlist::GateId>> fanout_;
  std::vector<std::uint8_t> values_;         // indexed by NetId
  std::vector<std::uint8_t> lastScheduled_;  // last scheduled value per net
  std::vector<Event> heap_;                  // min-heap on (time, seq)
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t eventCount_ = 0;
  std::function<void(double, netlist::NetId, bool)> observer_;
};

}  // namespace oisa::timing
