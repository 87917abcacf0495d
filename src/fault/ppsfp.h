// oisa_fault: parallel-pattern single-fault-propagation (PPSFP) engine.
//
// The classic fast stuck-at simulation scheme on the repo's word-parallel
// substrate: load W input patterns as W/64 uint64_t lane words per primary
// input (bit L of sub-word j = pattern 64j+L), simulate the good machine
// once with a single BatchEvaluator-style gate-order sweep, then for each
// fault propagate only the faulty cone:
//
//  * injection is a forced W-lane block at the fault site — the whole
//    stem block for a stem fault, or a forced operand on the addressed
//    reader's pins for a branch fault;
//  * propagation walks a levelized frontier over the CompiledNetlist CSR
//    arrays, re-evaluating a gate only when an input's faulty block
//    changed, with copy-on-write faulty values (an epoch stamp per net
//    selects faulty vs good, so per-fault cleanup is O(1));
//  * the engine early-outs as soon as the frontier converges with the
//    good machine — a recomputed block equal to the net's current
//    effective value schedules nothing.
//
// A fault is detected in lane L when any primary output's faulty block
// differs from the good block in bit L. Per fault the cost is the faulty
// cone, not the circuit, and each sweep carries W patterns — the two
// classic multipliers that make full fault simulation tractable.
//
// The template parameter is a netlist::LaneBlock; the 64-lane `PpsfpEngine`
// alias is the canonical reference (bit-exact against the serial
// single-pattern SerialFaultSimulator, asserted by tests/fault_sim_test.cpp
// on random netlists, c17 and all twelve paper designs), and the AVX2 and
// AVX-512 variants are proven bit-exact against it by
// tests/lane_width_test.cpp. Every instantiation implements AnyPpsfpEngine,
// the width-erased interface the coverage campaigns hold; the runtime
// factory lives in fault/ppsfp_dispatch.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "netlist/compiled_netlist.h"
#include "netlist/lane_block.h"

namespace oisa::fault {

/// Width-erased PpsfpEngineT. Pattern spans are input-major with
/// wordsPerNet() uint64 words per primary input; detection spans hold
/// wordsPerNet() words (bit L of sub-word j = pattern 64j+L detects).
class AnyPpsfpEngine {
 public:
  virtual ~AnyPpsfpEngine() = default;

  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  virtual void loadPatterns(std::span<const std::uint64_t> inputWords,
                            std::size_t patternCount) = 0;
  virtual void detectLanesInto(const Fault& f,
                               std::span<std::uint64_t> out) = 0;
  [[nodiscard]] virtual std::uint64_t faultsSimulated() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t gateEvaluations() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t activationSkips() const noexcept = 0;
  [[nodiscard]] virtual const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept = 0;

 protected:
  AnyPpsfpEngine() = default;
  AnyPpsfpEngine(const AnyPpsfpEngine&) = default;
  AnyPpsfpEngine(AnyPpsfpEngine&&) = default;
  AnyPpsfpEngine& operator=(const AnyPpsfpEngine&) = default;
  AnyPpsfpEngine& operator=(AnyPpsfpEngine&&) = default;
};

/// W-pattern single-fault propagation engine over one compiled netlist.
template <class Block>
class PpsfpEngineT final : public AnyPpsfpEngine {
 public:
  /// Patterns carried per sweep.
  static constexpr std::size_t kLanes = Block::kBits;
  /// uint64 words per net in every lane-major span.
  static constexpr std::size_t kWords = Block::kWords;

  explicit PpsfpEngineT(
      std::shared_ptr<const netlist::CompiledNetlist> compiled)
      : compiled_(std::move(compiled)) {
    const std::size_t nets = compiled_->netCount();
    const std::size_t gates = compiled_->gateCount();
    good_.assign(nets * kWords, 0);
    faulty_.assign(nets * kWords, 0);
    valEpoch_.assign(nets, 0);
    outEpoch_.assign(nets, 0);
    gateEpoch_.assign(gates, 0);
    isOutput_.assign(nets, false);
    for (const std::uint32_t po : compiled_->outputNets()) {
      isOutput_[po] = true;
    }

    // Levelize in gate order (a topological order): a gate's level is one
    // past the deepest driving gate, so every input net of a level-l gate
    // is committed while draining buckets < l — one evaluation per gate
    // per fault suffices.
    level_.assign(gates, 0);
    std::vector<std::uint32_t> netLevel(nets, 0);
    std::uint32_t maxLevel = 0;
    for (std::uint32_t gi = 0; gi < gates; ++gi) {
      const netlist::CompiledNetlist::GateRec& g = compiled_->gate(gi);
      std::uint32_t lvl = 0;
      for (const std::uint32_t in : g.in) lvl = std::max(lvl, netLevel[in]);
      level_[gi] = lvl;
      netLevel[g.out] = lvl + 1;
      maxLevel = std::max(maxLevel, lvl);
    }
    frontier_.resize(static_cast<std::size_t>(maxLevel) + 1);
  }

  /// Loads a pattern block and simulates the good machine: kWords words
  /// per primary input (declaration order, input-major), bit L of
  /// sub-word j = pattern 64j+L's value. `patternCount` < kLanes masks
  /// the unused high lanes out of detection.
  void loadPatterns(std::span<const std::uint64_t> inputWords,
                    std::size_t patternCount = kLanes) override {
    const auto pis = compiled_->inputNets();
    if (inputWords.size() != pis.size() * kWords) {
      throw std::invalid_argument(
          "PpsfpEngine: expected " + std::to_string(pis.size() * kWords) +
          " input words, got " + std::to_string(inputWords.size()));
    }
    if (patternCount == 0 || patternCount > kLanes) {
      throw std::invalid_argument("PpsfpEngine: need 1.." +
                                  std::to_string(kLanes) + " patterns");
    }
    std::uint64_t maskWords[kWords];
    for (std::size_t j = 0; j < kWords; ++j) {
      const std::size_t lo = j * 64;
      if (patternCount >= lo + 64) {
        maskWords[j] = ~std::uint64_t{0};
      } else if (patternCount <= lo) {
        maskWords[j] = 0;
      } else {
        maskWords[j] = (std::uint64_t{1} << (patternCount - lo)) - 1;
      }
    }
    laneMask_ = Block::load(maskWords);
    std::fill(good_.begin(), good_.end(), 0);
    for (std::size_t i = 0; i < pis.size(); ++i) {
      Block::load(inputWords.data() + i * kWords)
          .store(good_.data() + std::size_t{pis[i]} * kWords);
    }
    for (std::uint32_t gi = 0; gi < compiled_->gateCount(); ++gi) {
      const netlist::CompiledNetlist::GateRec& g = compiled_->gate(gi);
      const Block out = netlist::evalGateBlock<Block>(
          g.kind, goodBlock(g.in[0]), goodBlock(g.in[1]),
          goodBlock(g.in[2]));
      out.store(good_.data() + std::size_t{g.out} * kWords);
    }
  }

  /// Width-generic detection: writes kWords words into `out`; bit L of
  /// sub-word j is set when pattern 64j+L detects the fault.
  void detectLanesInto(const Fault& f,
                       std::span<std::uint64_t> out) override {
    if (out.size() != kWords) {
      throw std::invalid_argument(
          "PpsfpEngine::detectLanesInto: expected " +
          std::to_string(kWords) + " output words");
    }
    detectBlock(f).store(out.data());
  }

  /// Faults simulated and faulty-cone gate evaluations since
  /// construction (perf counters for benches and reports).
  [[nodiscard]] std::uint64_t faultsSimulated() const noexcept override {
    return faultCount_;
  }
  [[nodiscard]] std::uint64_t gateEvaluations() const noexcept override {
    return evalCount_;
  }
  /// Faults skipped by the activation fast exit (forced value equal to
  /// the stem's good block in every valid lane): the early-out rate the
  /// observability layer reports is activationSkips()/faultsSimulated().
  [[nodiscard]] std::uint64_t activationSkips() const noexcept override {
    return skipCount_;
  }

  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept override {
    return compiled_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return kLanes; }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return kWords;
  }

 private:
  [[nodiscard]] Block goodBlock(std::uint32_t net) const noexcept {
    return Block::load(good_.data() + std::size_t{net} * kWords);
  }
  [[nodiscard]] Block effective(std::uint32_t net) const noexcept {
    return valEpoch_[net] == epoch_
               ? Block::load(faulty_.data() + std::size_t{net} * kWords)
               : goodBlock(net);
  }

  void commit(std::uint32_t net, Block word) {
    word.store(faulty_.data() + std::size_t{net} * kWords);
    valEpoch_[net] = epoch_;
    if (isOutput_[net] && outEpoch_[net] != epoch_) {
      outEpoch_[net] = epoch_;
      touchedOutputs_.push_back(net);
    }
    const auto offsets = compiled_->fanoutOffsets();
    const auto readers = compiled_->readers();
    for (std::uint32_t i = offsets[net]; i < offsets[net + 1]; ++i) {
      enqueue(readers[i] >> 3);
    }
  }

  void enqueue(std::uint32_t gate) {
    if (gateEpoch_[gate] == epoch_) return;
    gateEpoch_[gate] = epoch_;
    const std::uint32_t lvl = level_[gate];
    frontier_[lvl].push_back(gate);
    minLevel_ = std::min(minLevel_, lvl);
  }

  [[nodiscard]] Block detectBlock(const Fault& f) {
    ++faultCount_;
    ++epoch_;
    touchedOutputs_.clear();
    minLevel_ = static_cast<std::uint32_t>(frontier_.size());

    // Injection. A fault whose forced block matches the stem's good block
    // in every valid lane is not activated by this block: nothing can
    // propagate, so skip the sweep entirely.
    const Block forced = Block::splat(stuckWord(f.stuck));
    std::uint32_t branchGate = 0xffffffff;
    std::uint32_t branchPins = 0;
    if (!((forced ^ goodBlock(f.net)) & laneMask_).any()) {
      ++skipCount_;  // per fault, outside the word loop
      return Block::zero();
    }
    if (f.isStem()) {
      commit(f.net, forced);
    } else {
      const std::uint32_t entry = compiled_->readers()[f.branch];
      branchGate = entry >> 3;
      branchPins = entry & 7u;
      enqueue(branchGate);
    }

    // Levelized single-fault propagation. Buckets only ever grow at
    // levels above the one being drained (commits enqueue readers, which
    // sit strictly deeper), so one pass over the levels visits the whole
    // cone.
    for (std::uint32_t lvl = minLevel_;
         lvl < static_cast<std::uint32_t>(frontier_.size()); ++lvl) {
      std::vector<std::uint32_t>& bucket = frontier_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const std::uint32_t gi = bucket[i];
        const netlist::CompiledNetlist::GateRec& g = compiled_->gate(gi);
        Block a = effective(g.in[0]);
        Block b = effective(g.in[1]);
        Block c = effective(g.in[2]);
        if (gi == branchGate) {
          if ((branchPins & 1u) != 0) a = forced;
          if ((branchPins & 2u) != 0) b = forced;
          if ((branchPins & 4u) != 0) c = forced;
        }
        ++evalCount_;
        const Block out = netlist::evalGateBlock<Block>(g.kind, a, b, c);
        // Early-out: a block equal to the net's current effective value
        // is the frontier converging with the good machine (or a no-op)
        // — nothing downstream can change.
        if (!(out == effective(g.out))) commit(g.out, out);
      }
      bucket.clear();
    }

    Block detected = Block::zero();
    for (const std::uint32_t net : touchedOutputs_) {
      detected =
          detected |
          (Block::load(faulty_.data() + std::size_t{net} * kWords) ^
           goodBlock(net));
    }
    return detected & laneMask_;
  }

  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::vector<std::uint64_t> good_;    // good machine, NetId * kWords
  std::vector<std::uint64_t> faulty_;  // copy-on-write faulty values
  std::vector<std::uint64_t> valEpoch_;
  std::vector<std::uint64_t> gateEpoch_;  // frontier membership stamp
  std::vector<std::uint64_t> outEpoch_;   // touched-output stamp
  std::vector<std::uint32_t> level_;      // per gate
  std::vector<std::vector<std::uint32_t>> frontier_;  // bucket per level
  std::vector<std::uint32_t> touchedOutputs_;
  std::vector<bool> isOutput_;
  Block laneMask_ = Block::ones();
  std::uint64_t epoch_ = 0;
  std::uint32_t minLevel_ = 0;  // first frontier bucket used this fault
  std::uint64_t faultCount_ = 0;
  std::uint64_t evalCount_ = 0;
  std::uint64_t skipCount_ = 0;
};

/// The canonical 64-lane reference engine: one word per input and one
/// detection word per fault.
using PpsfpEngine = PpsfpEngineT<netlist::LaneBlock64>;

// The reference is instantiated once in ppsfp.cpp (baseline flags); the
// intrinsic variants live in the per-arch dispatch TUs.
extern template class PpsfpEngineT<netlist::LaneBlock64>;

}  // namespace oisa::fault
