#include "experiments/workload.h"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>
#include <string>

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

void UniformWorkload::fill(std::span<Stimulus> out) {
  // A chunk of draws at a time: the stack buffer keeps memory flat in
  // out.size(). It is left uninitialized: every word read is drawn first.
  constexpr std::size_t kChunk = 1024;
  std::array<std::uint64_t, 2 * kChunk> words;
  for (std::size_t first = 0; first < out.size(); first += kChunk) {
    const std::size_t n = std::min(kChunk, out.size() - first);
    rng_.fill(std::span(words.data(), 2 * n));
    for (std::size_t i = 0; i < n; ++i) {
      out[first + i] = Stimulus{words[2 * i] & mask_,
                                words[2 * i + 1] & mask_, false};
    }
  }
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

// The other fill overrides call next() by its qualified name: a direct,
// inlinable call instead of one virtual dispatch per stimulus.
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

void packStimuli(std::span<const Stimulus> stims, int width,
                 std::span<std::uint64_t> words, std::size_t stride) {
  constexpr std::size_t kLanes = 64;
  if (width > 64) {
    throw std::invalid_argument("packStimuli: width " + std::to_string(width) +
                                " exceeds 64 bits");
  }
  const auto ports = static_cast<std::size_t>(2 * width + 1);
  if (words.size() != ports * stride) {
    throw std::invalid_argument(
        "packStimuli: expected " + std::to_string(2 * width + 1) + " x " +
        std::to_string(stride) +
        " input words (adder port convention), got " +
        std::to_string(words.size()));
  }
  const std::size_t blocks = (stims.size() + kLanes - 1) / kLanes;
  if (blocks > stride) {
    throw std::invalid_argument("packStimuli: " +
                                std::to_string(stims.size()) +
                                " stimuli need a stride of at least " +
                                std::to_string(blocks) + ", got " +
                                std::to_string(stride));
  }
  // Lane-major packing: after a transpose, row i holds bit i of every
  // lane's word. Up to 32 bits a and b share one transpose, a in the low
  // half of each lane's word and b in the high half; wider operands take
  // one transpose each.
  const netlist::Transpose64Kernel transpose = netlist::transpose64Kernel();
  const auto w = static_cast<std::size_t>(width);
  const bool shared = w <= 32;
  const std::uint64_t mask = maskBits(width);
  std::array<std::uint64_t, kLanes> aM{};
  std::array<std::uint64_t, kLanes> bM{};
  const std::uint64_t* bRows = shared ? aM.data() + 32 : bM.data();
  for (std::size_t j = 0; j < blocks; ++j) {
    const std::span<const Stimulus> sub =
        stims.subspan(j * kLanes, std::min(kLanes, stims.size() - j * kLanes));
    const auto spare = static_cast<std::ptrdiff_t>(sub.size());
    // Carry-ins eight lanes a step, so that most shifts are constants.
    std::uint64_t cinWord = 0;
    std::size_t lane = 0;
    for (; lane + 8 <= sub.size(); lane += 8) {
      std::uint64_t byte = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        byte |= static_cast<std::uint64_t>(sub[lane + k].carryIn) << k;
      }
      cinWord |= byte << lane;
    }
    for (; lane < sub.size(); ++lane) {
      cinWord |= static_cast<std::uint64_t>(sub[lane].carryIn) << lane;
    }
    if (shared) {
      for (std::size_t lane = 0; lane < sub.size(); ++lane) {
        aM[lane] = (sub[lane].a & mask) | (sub[lane].b & mask) << 32;
      }
      std::fill(aM.begin() + spare, aM.end(), aM[0]);
      transpose(aM.data());
    } else {
      for (std::size_t lane = 0; lane < sub.size(); ++lane) {
        aM[lane] = sub[lane].a;
        bM[lane] = sub[lane].b;
      }
      std::fill(aM.begin() + spare, aM.end(), aM[0]);
      std::fill(bM.begin() + spare, bM.end(), bM[0]);
      transpose(aM.data());
      transpose(bM.data());
    }
    for (std::size_t i = 0; i < w; ++i) {
      words[i * stride + j] = aM[i];
      words[(w + i) * stride + j] = bRows[i];
    }
    words[2 * w * stride + j] = cinWord;
  }
}

void packStimulusBlock(std::span<const Stimulus> stims, int width,
                       std::span<std::uint64_t> inputWords) {
  if (stims.empty() || stims.size() > 64) {
    throw std::invalid_argument("packStimulusBlock: need 1..64 stimuli");
  }
  if (inputWords.size() != static_cast<std::size_t>(2 * width + 1)) {
    throw std::invalid_argument(
        "packStimulusBlock: expected " + std::to_string(2 * width + 1) +
        " input words (adder port convention), got " +
        std::to_string(inputWords.size()));
  }
  packStimuli(stims, width, inputWords, 1);
}

}  // namespace oisa::experiments
