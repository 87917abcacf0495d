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
#include <random>
#include <span>
#include <string>

namespace oisa::experiments {

/// One cycle of adder stimulus.
struct Stimulus {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool carryIn = false;
};

/// Abstract stream of stimuli.
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
class UniformWorkload final : public Workload {
 public:
  UniformWorkload(int width, std::uint64_t seed);
  [[nodiscard]] Stimulus next() override;
  void fill(std::span<Stimulus> out) override;
  [[nodiscard]] std::string name() const override { return "uniform"; }

 private:
  std::mt19937_64 rng_;
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
  std::mt19937_64 rng_;
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
  std::mt19937_64 rng_;
  int width_;
  double toggleProbability_;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

/// Factory by name ("uniform", "random-walk", "sparse-toggle") for CLIs.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& kind,
                                                     int width,
                                                     std::uint64_t seed);

/// Packs up to 64 stimuli into lane-major primary-input words for a
/// generated adder netlist (port convention a0..aN-1, b0..bN-1, cin):
/// bit L of word i is stimulus L's value of primary input i. Operand bits
/// at or above `width` are ignored. Lanes beyond `stims.size()` replicate
/// stimulus 0 with carry-in low (don't-care lanes; callers mask them
/// out). `inputWords` must span exactly 2*width + 1 words. The single
/// owner of the adder port-layout assumption for lane-major pipelines
/// (trace collector, fault scan).
void packStimulusBlock(std::span<const Stimulus> stims, int width,
                       std::span<std::uint64_t> inputWords);

}  // namespace oisa::experiments
