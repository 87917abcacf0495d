// oisa_timing: word-parallel (64-lane) timed event simulation.
//
// LaneTimedSimulator is the timed counterpart of netlist::BatchEvaluator:
// it simulates 64 independent instances ("lanes") of one annotated
// netlist at once. Every net holds one 64-bit value word (bit L = lane
// L's value), an event is (timePs, net) carrying the freshly recomputed
// output word, and a gate schedules fanout only when *any* lane changes.
// Because all lanes share the netlist and its quantized delays, transition
// times coincide across lanes and one event covers every lane that toggles
// at that (time, net) — the denser the activity, the closer the engine
// gets to 64 scalar simulations for the price of one.
//
// No campaign runs this engine: sampled outputs come from the unrolled
// netlist (timing/unroll.h). It is the reference the unroller is proven
// against (tests/unroll_test.cpp) and the engine the benchmark's timed
// fault rebuild still times.
//
// Per-lane semantics are bit-exact versus the scalar TimedSimulator: a
// lane's committed waveform, sampled outputs and settle behavior equal a
// scalar run fed that lane's input stream (asserted by
// tests/lane_sim_test.cpp on random netlists and all paper design
// points). The key argument: when a gate re-evaluates because some lane's
// input changed, a quiet lane's recomputed bit equals the value it
// already scheduled — its inputs are unchanged since its own last event —
// so the extra commit is a per-lane no-op.
//
// All lanes advance on one shared time wheel and cursor: clock edges are
// common instants, and the strictly-before-edge latch semantics of the
// scalar engine hold lane for lane (LaneClockedSampler mirrors
// ClockedSampler). Structure comes from the shared
// netlist::CompiledNetlist, so scalar and lane engines over one design
// share a single compile.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/batch_evaluator.h"
#include "netlist/compiled_netlist.h"
#include "netlist/netlist.h"
#include "timing/delay_annotation.h"

namespace oisa::timing {

/// 64-lane integer-time event-driven simulator over one netlist.
class LaneTimedSimulator {
 public:
  /// Number of independent simulation lanes per instance.
  static constexpr std::size_t kLanes = 64;

  /// Compiles `nl` privately.
  LaneTimedSimulator(const netlist::Netlist& nl,
                     const DelayAnnotation& delays)
      : LaneTimedSimulator(netlist::CompiledNetlist::compile(nl), delays) {}

  /// Shares an existing compile with other engines over the same design.
  LaneTimedSimulator(std::shared_ptr<const netlist::CompiledNetlist> compiled,
                     const DelayAnnotation& delays)
      : compiled_(std::move(compiled)) {
    if (delays.gateCount() != compiled_->gateCount()) {
      throw std::invalid_argument(
          "LaneTimedSimulator: annotation does not match netlist");
    }
    fanoutOffset_ = compiled_->fanoutOffsets();
    readers_ = compiled_->readers();
    inputNets_ = compiled_->inputNets();
    const std::vector<TimePs> delaysPs = delays.quantizedDelaysPs();
    TimePs maxDelay = 0;
    gates_.resize(compiled_->gateCount());
    for (std::uint32_t gi = 0; gi < gates_.size(); ++gi) {
      const netlist::CompiledNetlist::GateRec& g = compiled_->gate(gi);
      const TimePs d = delaysPs[gi];
      if (d < 0 || d > kMaxDelayPs) {
        throw std::invalid_argument(
            "LaneTimedSimulator: gate delay outside supported range "
            "[0, ~1us]");
      }
      GateRec& rec = gates_[gi];
      rec.in = g.in;
      rec.out = g.out;
      rec.delayPs = static_cast<std::uint32_t>(d);
      rec.kind = static_cast<std::uint32_t>(g.kind);
      maxDelay = std::max(maxDelay, d);
    }
    lastSched_.resize(gates_.size());
    const auto slots =
        std::bit_ceil(static_cast<std::uint64_t>(maxDelay) + 1);
    wheel_.resize(slots);
    wheelMask_ = static_cast<std::uint32_t>(slots - 1);
    reset();
  }

  /// Applies primary-input words at the current simulation time: one word
  /// per primary input (declaration order), bit L = lane L's value.
  void applyInputs(std::span<const std::uint64_t> inputWords) {
    if (inputWords.size() != inputNets_.size()) {
      throw std::invalid_argument(
          "LaneTimedSimulator: wrong input word count");
    }
    for (std::size_t i = 0; i < inputNets_.size(); ++i) {
      const std::uint32_t net = inputNets_[i];
      commit(net, clampWord(net, inputWords[i]));
    }
  }

  /// Advances simulation, processing all events strictly before
  /// `currentTime + deltaPs`, then sets current time to that instant.
  void advancePs(TimePs deltaPs) {
    if (deltaPs < 0) {
      throw std::invalid_argument("LaneTimedSimulator: negative advance");
    }
    armBudget();
    runUntil(now_ + deltaPs);
    now_ += deltaPs;
  }

  /// Processes every pending event in every lane. Returns the timestamp of
  /// the last processed event. Throws std::runtime_error with a diagnostic
  /// if the event budget is exceeded (non-settling or cyclic netlist).
  TimePs settlePs() {
    armBudget();
    TimePs last = now_;
    while (pending_ > 0) {
      if (wheel_[cursor_ & wheelMask_].len != 0) last = cursor_;
      drainSlot(cursor_);
      ++cursor_;
    }
    now_ = std::max(now_, last);
    cursor_ = now_;  // re-arm: zero-delay events at `now_` must still drain
    return last;
  }

  /// Current value words of the primary outputs, in declaration order.
  [[nodiscard]] std::vector<std::uint64_t> sampleOutputs() const {
    std::vector<std::uint64_t> out;
    sampleOutputsInto(out);
    return out;
  }

  /// Allocation-free sampling: writes the primary-output words into `out`.
  void sampleOutputsInto(std::vector<std::uint64_t>& out) const {
    const auto pos = compiled_->outputNets();
    out.resize(pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i) out[i] = values_[pos[i]];
  }

  /// Current 64-lane value word of an arbitrary net.
  [[nodiscard]] std::uint64_t netWord(netlist::NetId net) const noexcept {
    return values_[net.value];
  }

  [[nodiscard]] TimePs nowPs() const noexcept { return now_; }

  /// Committed events since construction (one event may change many
  /// lanes); laneTransitionsCommitted() counts the per-lane bit flips.
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept {
    return eventCount_;
  }
  [[nodiscard]] std::uint64_t laneTransitionsCommitted() const noexcept {
    return laneTransitions_;
  }

  /// Per-call committed-event cap for advancePs/settlePs — the
  /// non-settling/cyclic netlist guard (see TimedSimulator::setEventBudget).
  void setEventBudget(std::uint64_t maxEventsPerCall) noexcept {
    budget_ = maxEventsPerCall;
  }

  /// Resets every lane to the settled all-inputs-low state at time 0 with
  /// no events. A cyclic netlist instead powers up all-zero with the
  /// disagreeing gates scheduled to react, as in the scalar engine.
  /// Net forces (forceNet) survive the reset and are re-applied to the
  /// power-up state.
  void reset() {
    // Broadcast the compiled settled all-inputs-low state to every lane.
    const auto zero = compiled_->zeroState();
    values_.resize(zero.size());
    for (std::size_t n = 0; n < zero.size(); ++n) {
      values_[n] = clampWord(static_cast<std::uint32_t>(n),
                             zero[n] ? ~std::uint64_t{0} : 0);
    }
    for (Slot& slot : wheel_) slot.len = 0;
    pending_ = 0;
    now_ = 0;
    cursor_ = 0;
    eventCount_ = 0;
    laneTransitions_ = 0;
    for (std::uint32_t gi = 0; gi < gates_.size(); ++gi) {
      const GateRec& rec = gates_[gi];
      const std::uint64_t out = evalGate(rec);
      lastSched_[gi] = out;
      if (out != values_[rec.out]) [[unlikely]] {
        pushEvent(wheel_[rec.delayPs & wheelMask_], rec.out, out);
      }
    }
  }

  /// Net-override hook on the wheel (stuck-at / defect injection): lanes
  /// set in `laneMask` of `net` are clamped to the corresponding bits of
  /// `bits` — the clamp rewrites every word committed to the net (input
  /// application, scheduled gate output, reset state), so readers and
  /// output sampling only ever see the forced value while healthy lanes
  /// keep simulating unchanged. Takes effect immediately at the current
  /// time: a clamp that changes the net's value schedules its readers
  /// like any other committed change. Repeated calls accumulate per net.
  void forceNet(netlist::NetId net, std::uint64_t laneMask,
                std::uint64_t bits) {
    if (net.value >= compiled_->netCount()) {
      throw std::invalid_argument(
          "LaneTimedSimulator::forceNet: net index out of range (fault from "
          "another netlist?)");
    }
    if (forceMask_.empty()) {
      forceMask_.assign(values_.size(), 0);
      forceBits_.assign(values_.size(), 0);
    }
    forceMask_[net.value] |= laneMask;
    forceBits_[net.value] =
        (forceBits_[net.value] & ~laneMask) | (bits & laneMask);
    forced_ = true;
    // Commit the clamp immediately at the current time, exactly like an
    // input change: readers of a net whose value flips react after their
    // own delays.
    commit(net.value, clampWord(net.value, values_[net.value]));
  }

 private:
  /// Dense per-gate record: input/output net indices, quantized delay and
  /// gate kind, packed into 32 bytes so one reader evaluation touches one
  /// cache line (plus the shared values_ words it gathers).
  struct GateRec {
    std::array<std::uint32_t, 3> in{};
    std::uint32_t out = 0;
    std::uint32_t delayPs = 0;
    std::uint32_t kind = 0;  ///< netlist::GateKind
    std::uint32_t pad0_ = 0;
    std::uint32_t pad1_ = 0;
  };
  static constexpr TimePs kMaxDelayPs = TimePs{1} << 20;
  static constexpr std::uint64_t kDefaultEventBudget = std::uint64_t{1}
                                                       << 22;

  /// One scheduled net change carrying the full 64-lane word; the
  /// timestamp is implied by the wheel slot.
  struct SlotEvent {
    std::uint32_t net;
    std::uint64_t word;
  };
  struct Slot {
    std::vector<SlotEvent> data;
    std::uint32_t len = 0;
  };

  /// Applies the net-override clamp to a word about to be scheduled or
  /// committed for `net`. The `forced_` flag keeps the fault-free hot
  /// path at one predictable branch.
  [[nodiscard]] inline std::uint64_t clampWord(std::uint32_t net,
                                               std::uint64_t word) const {
    if (!forced_) [[likely]] {
      return word;
    }
    return (word & ~forceMask_[net]) | forceBits_[net];
  }

  /// The gate's clamped output word over the current net values.
  [[nodiscard]] inline std::uint64_t evalGate(const GateRec& rec) const {
    return clampWord(rec.out,
                     netlist::evalGateWord(
                         static_cast<netlist::GateKind>(rec.kind),
                         values_[rec.in[0]], values_[rec.in[1]],
                         values_[rec.in[2]]));
  }

  /// Commits `word` to an input or forced net at the current time; a
  /// change schedules the net's readers.
  inline void commit(std::uint32_t net, std::uint64_t word) {
    const std::uint64_t old = values_[net];
    if (old == word) return;
    laneTransitions_ += static_cast<std::uint64_t>(std::popcount(old ^ word));
    values_[net] = word;
    scheduleReaders(net, now_);
  }

  inline void pushEvent(Slot& slot, std::uint32_t net, std::uint64_t word) {
    if (slot.len == slot.data.size()) [[unlikely]] {
      slot.data.resize(std::max<std::size_t>(8, slot.data.size() * 2));
    }
    slot.data[slot.len++] = SlotEvent{net, word};
    ++pending_;
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void
  scheduleReaders(std::uint32_t net, TimePs atTime) {
    const std::uint32_t begin = fanoutOffset_[net];
    const std::uint32_t end = fanoutOffset_[net + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t g = readers_[i] >> 3;
      const GateRec& rec = gates_[g];
      // Recompute the full 64-lane output word. Lanes whose inputs did not
      // change recompute the value they already scheduled, so the dedup
      // below drops pure no-ops and a partially-changed word re-commits
      // quiet lanes' bits harmlessly. Forced (stuck) lanes of the output
      // net are clamped before the dedup, so a defective net never
      // schedules its healthy value.
      const std::uint64_t out = evalGate(rec);
      if (out == lastSched_[g]) continue;
      lastSched_[g] = out;
      pushEvent(wheel_[(atTime + rec.delayPs) & wheelMask_], rec.out, out);
    }
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void
  drainSlot(TimePs t) {
    Slot& slot = wheel_[t & wheelMask_];
    // Zero-delay gates append to this same slot mid-drain; the index loop
    // picks those up in schedule order (an append may reallocate the
    // backing store, so the event is copied out first).
    for (std::uint32_t i = 0; i < slot.len; ++i) {
      const SlotEvent e = slot.data[i];
      // Re-clamp at commit: an event scheduled before a forceNet call
      // still carries the healthy word.
      const std::uint64_t word = clampWord(e.net, e.word);
      const std::uint64_t old = values_[e.net];
      if (old == word) continue;
      values_[e.net] = word;
      laneTransitions_ +=
          static_cast<std::uint64_t>(std::popcount(old ^ word));
      if (++eventCount_ > failAt_) [[unlikely]] {
        throwBudgetExceeded();
      }
      scheduleReaders(e.net, t);
    }
    pending_ -= slot.len;
    slot.len = 0;
  }

  void runUntil(TimePs horizon) {
    while (pending_ > 0 && cursor_ < horizon) {
      drainSlot(cursor_);
      ++cursor_;
    }
    if (cursor_ < horizon) cursor_ = horizon;  // nothing pending: skip ahead
  }

  /// Saturating: a budget of ~0 ("unlimited") must not wrap failAt_.
  inline void armBudget() noexcept {
    failAt_ = eventCount_ > ~std::uint64_t{0} - budget_
                  ? ~std::uint64_t{0}
                  : eventCount_ + budget_;
  }

  [[noreturn]] void throwBudgetExceeded() const {
    throw std::runtime_error(
        "LaneTimedSimulator: event budget of " + std::to_string(budget_) +
        " committed events exceeded within one advance/settle call — "
        "non-settling or cyclic netlist? (the simulator state is "
        "inconsistent; call reset() before reuse)");
  }

  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::vector<GateRec> gates_;
  /// Per gate: last scheduled output word.
  std::vector<std::uint64_t> lastSched_;
  std::span<const std::uint32_t> fanoutOffset_;  // shared CSR (compiled_)
  std::span<const std::uint32_t> readers_;
  std::span<const std::uint32_t> inputNets_;
  std::vector<std::uint64_t> values_;  // indexed by NetId
  std::vector<Slot> wheel_;
  std::uint32_t wheelMask_ = 0;
  std::uint64_t pending_ = 0;
  TimePs now_ = 0;
  TimePs cursor_ = 0;
  std::uint64_t eventCount_ = 0;
  std::uint64_t laneTransitions_ = 0;
  std::uint64_t budget_ = kDefaultEventBudget;
  std::uint64_t failAt_ = ~std::uint64_t{0};
  /// Net-override state (empty until the first forceNet call).
  std::vector<std::uint64_t> forceMask_;
  std::vector<std::uint64_t> forceBits_;
  bool forced_ = false;
};

/// Drives a LaneTimedSimulator like 64 clocked register stages sharing one
/// clock: per step, 64 input vectors (one per lane) are applied at a
/// common edge and all lanes' outputs latch one period later. The shared
/// cursor makes the scalar engine's strictly-before-edge latch semantics
/// hold for every lane.
class LaneClockedSampler {
 public:
  LaneClockedSampler(std::shared_ptr<const netlist::CompiledNetlist> compiled,
                     const DelayAnnotation& delays, double periodNs)
      : sim_(std::move(compiled), delays),
        periodPs_(quantizeSpanPs(periodNs)) {
    if (periodNs <= 0.0 || periodPs_ <= 0) {
      throw std::invalid_argument(
          "LaneClockedSampler: period must be positive");
    }
  }

  /// uint64 words per net in every span: always 1. Kept only for the
  /// benchmark's timed fault rebuild (perfbench/campaign.cpp); it goes
  /// when that rebuild stops asking for it.
  [[nodiscard]] static constexpr std::size_t wordsPerNet() noexcept {
    return 1;
  }

  /// Settles every lane on an initial vector (reset cycle; no sampling).
  void initialize(std::span<const std::uint64_t> inputWords) {
    sim_.applyInputs(inputWords);
    (void)sim_.settlePs();
  }

  /// Applies the cycle's input vectors, advances one period, and writes
  /// the latched primary-output words into `out`.
  void stepInto(std::span<const std::uint64_t> inputWords,
                std::vector<std::uint64_t>& out) {
    sim_.applyInputs(inputWords);
    sim_.advancePs(periodPs_);
    sim_.sampleOutputsInto(out);
  }

  [[nodiscard]] TimePs periodPs() const noexcept { return periodPs_; }
  [[nodiscard]] LaneTimedSimulator& simulator() noexcept { return sim_; }

 private:
  LaneTimedSimulator sim_;
  TimePs periodPs_;
};

}  // namespace oisa::timing
