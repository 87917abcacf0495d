// oisa_netlist: word-parallel (W-lane) zero-delay evaluation.
//
// Packs W independent input patterns into W/64 std::uint64_t words per net
// — bit L of sub-word j belongs to pattern 64j + L — and evaluates all of
// them in a single gate-order sweep using bitwise gate functions. This is
// the classic bit-parallel fault-simulation idiom: the sweep cost is
// identical to one scalar Evaluator pass, so throughput improves by up to
// W x for functional Monte-Carlo sampling, equivalence checking and
// workload replay.
//
// The engine is a template over netlist::LaneBlock, instantiated three
// times: the 64-lane `BatchEvaluator` alias (the canonical reference) and
// the AVX2 (256-lane) and AVX-512 (512-lane) variants the runtime
// dispatcher (netlist/lane_width.h) builds. Each instantiation implements
// AnyBatchEvaluator, the width-erased interface the experiment layer
// holds. Data planes are flat uint64 vectors with kWords words per net
// (input-major: net n's lanes live at [n*kWords, (n+1)*kWords)), so
// slicing a wide run into 64-lane sub-runs is a stride — the property
// tests/lane_width_test.cpp uses to prove every width bit-exact against
// the reference.
//
// Runs over the shared netlist::CompiledNetlist substrate (dense gate
// records in gate order, which is a topological order), so it can share one
// compile with the timed engines. Functionally equivalent to Evaluator lane by lane
// (cross-checked by tests/batch_evaluator_test.cpp on every adder
// topology).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/compiled_netlist.h"
#include "netlist/lane_block.h"
#include "netlist/netlist.h"

namespace oisa::netlist {

/// Width-erased BatchEvaluatorT: the interface TraceCollector and the
/// experiment pipelines program against. Spans are input-/output-/net-major
/// with wordsPerNet() uint64 words per port or net; sub-word j of a net
/// holds lanes [64j, 64j + 64).
class AnyBatchEvaluator {
 public:
  virtual ~AnyBatchEvaluator() = default;

  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t wordsPerNet() const noexcept = 0;
  virtual void evaluateInto(std::span<const std::uint64_t> inputWords,
                            std::vector<std::uint64_t>& values) const = 0;
  virtual void evaluateOutputsInto(std::span<const std::uint64_t> inputWords,
                                   std::vector<std::uint64_t>& out) const = 0;
  [[nodiscard]] virtual const std::shared_ptr<const CompiledNetlist>&
  compiled() const noexcept = 0;

 protected:
  AnyBatchEvaluator() = default;
  AnyBatchEvaluator(const AnyBatchEvaluator&) = default;
  AnyBatchEvaluator(AnyBatchEvaluator&&) = default;
  AnyBatchEvaluator& operator=(const AnyBatchEvaluator&) = default;
  AnyBatchEvaluator& operator=(AnyBatchEvaluator&&) = default;
};

/// Reusable W-lane evaluator over a compiled netlist. evaluate() and
/// evaluateOutputs() take kWords words per primary input whose bit L of
/// sub-word j is pattern (64j + L)'s value of that input, for any port
/// count.
template <class Block>
class BatchEvaluatorT final : public AnyBatchEvaluator {
 public:
  /// Number of patterns evaluated per sweep.
  static constexpr std::size_t kLanes = Block::kBits;
  /// uint64 words per net in every lane-major span.
  static constexpr std::size_t kWords = Block::kWords;

  /// Compiles `nl` privately.
  explicit BatchEvaluatorT(const Netlist& nl)
      : BatchEvaluatorT(CompiledNetlist::compile(nl)) {}

  /// Shares an existing compile (e.g. with a timed engine over the same
  /// design).
  explicit BatchEvaluatorT(std::shared_ptr<const CompiledNetlist> compiled)
      : compiled_(std::move(compiled)) {}

  /// Evaluates kLanes patterns at once. `inputWords` holds kWords words per
  /// primary input (declaration order, input-major). Returns kWords words
  /// per net, indexed by NetId::value * kWords. For batches smaller than
  /// kLanes the extra lanes simply compute whatever the unused input bits
  /// encode; callers mask them out.
  [[nodiscard]] std::vector<std::uint64_t> evaluate(
      std::span<const std::uint64_t> inputWords) const {
    std::vector<std::uint64_t> values;
    evaluateInto(inputWords, values);
    return values;
  }

  /// Like evaluate() but writes into `values` (resized to
  /// netCount() * kWords), avoiding per-batch allocation in hot loops.
  void evaluateInto(std::span<const std::uint64_t> inputWords,
                    std::vector<std::uint64_t>& values) const override {
    const auto pis = compiled_->inputNets();
    if (inputWords.size() != pis.size() * kWords) {
      throw std::invalid_argument(
          "BatchEvaluator: expected " + std::to_string(pis.size() * kWords) +
          " input words, got " + std::to_string(inputWords.size()));
    }
    values.assign(compiled_->netCount() * kWords, 0);
    for (std::size_t i = 0; i < pis.size(); ++i) {
      Block::load(inputWords.data() + i * kWords)
          .store(values.data() + std::size_t{pis[i]} * kWords);
    }
    for (std::uint32_t gi = 0; gi < compiled_->gateCount(); ++gi) {
      const CompiledNetlist::GateRec& g = compiled_->gate(gi);
      const Block out = evalGateBlock<Block>(
          g.kind, Block::load(values.data() + std::size_t{g.in[0]} * kWords),
          Block::load(values.data() + std::size_t{g.in[1]} * kWords),
          Block::load(values.data() + std::size_t{g.in[2]} * kWords));
      out.store(values.data() + std::size_t{g.out} * kWords);
    }
  }

  /// Evaluates kLanes patterns and returns kWords words per primary output
  /// (declaration order, output-major).
  [[nodiscard]] std::vector<std::uint64_t> evaluateOutputs(
      std::span<const std::uint64_t> inputWords) const {
    std::vector<std::uint64_t> out;
    evaluateOutputsInto(inputWords, out);
    return out;
  }

  /// Like evaluateOutputs() but writes into `out` (resized to
  /// outputCount * kWords).
  void evaluateOutputsInto(std::span<const std::uint64_t> inputWords,
                           std::vector<std::uint64_t>& out) const override {
    const auto values = evaluate(inputWords);
    const auto pos = compiled_->outputNets();
    out.resize(pos.size() * kWords);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      for (std::size_t j = 0; j < kWords; ++j) {
        out[i * kWords + j] = values[std::size_t{pos[i]} * kWords + j];
      }
    }
  }

  [[nodiscard]] const Netlist& netlist() const noexcept {
    return compiled_->source();
  }
  [[nodiscard]] const std::shared_ptr<const CompiledNetlist>& compiled()
      const noexcept override {
    return compiled_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return kLanes; }
  [[nodiscard]] std::size_t wordsPerNet() const noexcept override {
    return kWords;
  }

 private:
  std::shared_ptr<const CompiledNetlist> compiled_;
};

/// The canonical 64-lane reference evaluator (original API: one word per
/// net, one word per input/output).
using BatchEvaluator = BatchEvaluatorT<LaneBlock64>;

// The reference is instantiated once in batch_evaluator.cpp (compiled
// with the baseline flags) so TUs built with wider -m flags never emit
// its code — that keeps the dispatch binaries runnable on x86-64-v2-only
// hosts. The intrinsic variants are instantiated only in the per-arch
// dispatch TUs (lane_simd_avx2.cpp / lane_simd_avx512.cpp).
extern template class BatchEvaluatorT<LaneBlock64>;

}  // namespace oisa::netlist
