// oisa_experiments: input workload generators.
//
// The paper characterizes adders with ten million uniform random unsigned
// inputs; additional generators exercise realistic activity patterns
// (correlated random walks as in DSP streams, sparse/bursty toggling) for
// extended studies, since timing errors depend on consecutive-cycle input
// pairs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "netlist/bitops.h"

namespace oisa::experiments {

/// One cycle of adder stimulus.
struct Stimulus {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool carryIn = false;
};

/// Abstract stream of stimuli. The concrete workloads draw from
/// netlist::BulkMt19937_64, which yields std::mt19937_64's sequence.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual Stimulus next() = 0;
  /// Draws `out.size()` stimuli: the sequence that many next() calls
  /// return. The concrete workloads override it with a devirtualized loop.
  virtual void fill(std::span<Stimulus> out) {
    for (Stimulus& s : out) s = next();
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Uniform random operands over the full width (the paper's setting).
/// Stimulus s takes draws 2s (a) and 2s + 1 (b) of the stream.
class UniformWorkload final : public Workload {
 public:
  UniformWorkload(int width, std::uint64_t seed);
  [[nodiscard]] Stimulus next() override;
  /// Draws the 2 * out.size() words through BulkMt19937_64::fill.
  void fill(std::span<Stimulus> out) override;
  [[nodiscard]] std::string name() const override { return "uniform"; }

 private:
  netlist::BulkMt19937_64 rng_;
  std::uint64_t mask_;
};

/// Random-walk operands: each operand moves by a bounded signed step each
/// cycle, modeling correlated DSP streams (low MSB activity).
class RandomWalkWorkload final : public Workload {
 public:
  /// `stepBits` — maximum step magnitude is 2^stepBits.
  RandomWalkWorkload(int width, int stepBits, std::uint64_t seed);
  [[nodiscard]] Stimulus next() override;
  void fill(std::span<Stimulus> out) override;
  [[nodiscard]] std::string name() const override { return "random-walk"; }

 private:
  netlist::BulkMt19937_64 rng_;
  std::uint64_t mask_;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  std::uint64_t stepMask_;
};

/// Sparse toggling: each operand bit flips with a small probability per
/// cycle, producing low-activity inputs that rarely sensitize long paths.
class SparseToggleWorkload final : public Workload {
 public:
  SparseToggleWorkload(int width, double toggleProbability,
                       std::uint64_t seed);
  [[nodiscard]] Stimulus next() override;
  void fill(std::span<Stimulus> out) override;
  [[nodiscard]] std::string name() const override { return "sparse-toggle"; }

 private:
  netlist::BulkMt19937_64 rng_;
  int width_;
  double toggleProbability_;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

/// Factory by name ("uniform", "random-walk", "sparse-toggle") for CLIs.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& kind,
                                                     int width,
                                                     std::uint64_t seed);

/// Packs any number of stimuli into lane-major primary-input words for a
/// generated adder netlist (port convention a0..aN-1, b0..bN-1, cin),
/// one 64-stimulus sub-block at a time: bit L of sub-block j of input i
/// is stimulus 64j + L's value of primary input i, written to
/// words[i * stride + j]. Operand bits at or above `width` are ignored.
/// In a partial last sub-block, the lanes past the stimuli replicate the
/// sub-block's first stimulus with carry-in low (don't-care lanes;
/// callers mask them out). Words of sub-blocks past the last are left
/// untouched. `words` must span exactly (2*width + 1) * stride words, and
/// `stride` must hold every sub-block. The single owner of the adder
/// port-layout assumption for lane-major pipelines (trace collector,
/// fault scan). Throws std::invalid_argument on a width above 64 or a
/// size mismatch.
void packStimuli(std::span<const Stimulus> stims, int width,
                 std::span<std::uint64_t> words, std::size_t stride);

/// packStimuli with stride 1 for 1..64 stimuli: bit L of word i is
/// stimulus L's value of primary input i, and `inputWords` spans exactly
/// 2*width + 1 words.
void packStimulusBlock(std::span<const Stimulus> stims, int width,
                       std::span<std::uint64_t> inputWords);

}  // namespace oisa::experiments
