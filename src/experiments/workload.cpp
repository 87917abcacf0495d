#include "experiments/workload.h"

#include <array>
#include <stdexcept>
#include <string>

#include "netlist/bitops.h"

namespace oisa::experiments {

namespace {
[[nodiscard]] constexpr std::uint64_t maskBits(int n) noexcept {
  if (n <= 0) return 0;
  if (n >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << n) - 1;
}
}  // namespace

UniformWorkload::UniformWorkload(int width, std::uint64_t seed)
    : rng_(seed), mask_(maskBits(width)) {}

Stimulus UniformWorkload::next() {
  Stimulus s;
  s.a = rng_() & mask_;
  s.b = rng_() & mask_;
  s.carryIn = false;  // the paper studies plain unsigned addition
  return s;
}

// The fill overrides call next() by its qualified name: a direct,
// inlinable call instead of one virtual dispatch per stimulus.
void UniformWorkload::fill(std::span<Stimulus> out) {
  for (Stimulus& s : out) s = UniformWorkload::next();
}

RandomWalkWorkload::RandomWalkWorkload(int width, int stepBits,
                                       std::uint64_t seed)
    : rng_(seed), mask_(maskBits(width)), stepMask_(maskBits(stepBits)) {
  a_ = rng_() & mask_;
  b_ = rng_() & mask_;
}

Stimulus RandomWalkWorkload::next() {
  const std::uint64_t stepA = rng_() & stepMask_;
  const std::uint64_t stepB = rng_() & stepMask_;
  // Signed steps: direction chosen by one extra random bit each.
  a_ = ((rng_() & 1u) ? a_ + stepA : a_ - stepA) & mask_;
  b_ = ((rng_() & 1u) ? b_ + stepB : b_ - stepB) & mask_;
  return Stimulus{a_, b_, false};
}

void RandomWalkWorkload::fill(std::span<Stimulus> out) {
  for (Stimulus& s : out) s = RandomWalkWorkload::next();
}

SparseToggleWorkload::SparseToggleWorkload(int width,
                                           double toggleProbability,
                                           std::uint64_t seed)
    : rng_(seed), width_(width), toggleProbability_(toggleProbability) {
  if (toggleProbability < 0.0 || toggleProbability > 1.0) {
    throw std::invalid_argument("SparseToggleWorkload: bad probability");
  }
  a_ = rng_() & maskBits(width);
  b_ = rng_() & maskBits(width);
}

Stimulus SparseToggleWorkload::next() {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int i = 0; i < width_; ++i) {
    if (coin(rng_) < toggleProbability_) a_ ^= std::uint64_t{1} << i;
    if (coin(rng_) < toggleProbability_) b_ ^= std::uint64_t{1} << i;
  }
  return Stimulus{a_, b_, false};
}

void SparseToggleWorkload::fill(std::span<Stimulus> out) {
  for (Stimulus& s : out) s = SparseToggleWorkload::next();
}

std::unique_ptr<Workload> makeWorkload(const std::string& kind, int width,
                                       std::uint64_t seed) {
  if (kind == "uniform") {
    return std::make_unique<UniformWorkload>(width, seed);
  }
  if (kind == "random-walk") {
    return std::make_unique<RandomWalkWorkload>(width, 8, seed);
  }
  if (kind == "sparse-toggle") {
    return std::make_unique<SparseToggleWorkload>(width, 0.05, seed);
  }
  throw std::invalid_argument("makeWorkload: unknown kind '" + kind + "'");
}

void packStimulusBlock(std::span<const Stimulus> stims, int width,
                       std::span<std::uint64_t> inputWords) {
  constexpr std::size_t kLanes = 64;
  if (stims.empty() || stims.size() > kLanes) {
    throw std::invalid_argument("packStimulusBlock: need 1..64 stimuli");
  }
  if (inputWords.size() != static_cast<std::size_t>(2 * width + 1)) {
    throw std::invalid_argument(
        "packStimulusBlock: expected " + std::to_string(2 * width + 1) +
        " input words (adder port convention), got " +
        std::to_string(inputWords.size()));
  }
  // Lane-major packing: after a transpose, row i holds bit i of every
  // lane's word. Up to 32 bits a and b share one transpose, a in the low
  // half of each lane's word and b in the high half; wider operands take
  // one transpose each.
  const bool shared = width <= 32;
  const std::uint64_t mask = maskBits(width);
  std::array<std::uint64_t, kLanes> aM{};
  std::array<std::uint64_t, kLanes> bM{};
  std::uint64_t cinWord = 0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const Stimulus& s = stims[lane < stims.size() ? lane : 0];
    if (shared) {
      aM[lane] = (s.a & mask) | (s.b & mask) << 32;
    } else {
      aM[lane] = s.a;
      bM[lane] = s.b;
    }
    if (lane < stims.size() && s.carryIn) {
      cinWord |= std::uint64_t{1} << lane;
    }
  }
  netlist::transpose64(aM);
  if (!shared) netlist::transpose64(bM);
  const std::uint64_t* bRows = shared ? aM.data() + 32 : bM.data();
  for (std::size_t i = 0; i < static_cast<std::size_t>(width); ++i) {
    inputWords[i] = aM[i];
    inputWords[static_cast<std::size_t>(width) + i] = bRows[i];
  }
  inputWords[static_cast<std::size_t>(2 * width)] = cinWord;
}

}  // namespace oisa::experiments
