// Exhaustive-ish unit coverage of the word-level primitives everything
// else is built on: the 64x64 bit-matrix transpose and the bulk
// MT19937-64 engine (netlist/bitops.h), each through every kernel this
// build + CPU runs, and the portable LaneBlock<W> register type
// (netlist/lane_block.h) at every supported width. The intrinsic
// (AVX2/AVX-512) LaneBlock specializations are deliberately not nameable
// here — only the -m-flagged dispatch TUs may instantiate them — so their
// equivalence is proven end-to-end through the dispatched engines in
// lane_width_test.cpp instead.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiments/workload.h"
#include "netlist/batch_evaluator.h"
#include "netlist/bitops.h"
#include "netlist/gate.h"
#include "netlist/lane_block.h"
#include "netlist/lane_width.h"

#include "differential_harness.h"

namespace {

using oisa::netlist::BulkMt19937_64;
using oisa::netlist::GateKind;
using oisa::netlist::LaneArch;
using oisa::netlist::LaneBlock;
using oisa::netlist::laneSelectionName;

/// Every kernel arch this build + CPU runs, portable first.
std::vector<LaneArch> runnableArchs() {
  std::vector<LaneArch> archs;
  for (const auto sel : oisa::netlist::availableLaneSelections()) {
    archs.push_back(sel.arch);
  }
  return archs;
}

using Matrix = std::array<std::uint64_t, 64>;

/// The block-swap rounds as plain loops: the reference every transpose
/// kernel must reproduce.
Matrix transposeByRounds(Matrix rows) {
  std::uint64_t m = 0x00000000ffffffffull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((rows[k] >> j) ^ rows[k + j]) & m;
      rows[k] ^= t << j;
      rows[k + j] ^= t;
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// transpose64
// ---------------------------------------------------------------------------

TEST(Transpose64Test, EverySingleBitLandsTransposed) {
  // All 4096 one-hot matrices: bit (i, j) must move to (j, i) and nothing
  // else may be set.
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      std::array<std::uint64_t, 64> m{};
      m[i] = std::uint64_t{1} << j;
      oisa::netlist::transpose64(m);
      for (std::size_t r = 0; r < 64; ++r) {
        ASSERT_EQ(m[r], r == j ? std::uint64_t{1} << i : 0u)
            << "bit (" << i << ", " << j << ") row " << r;
      }
    }
  }
}

TEST(Transpose64Test, IsAnInvolutionOnRandomMatrices) {
  OISA_TRACE_SEED(321);
  std::mt19937_64 rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint64_t, 64> m{};
    for (auto& r : m) r = rng();
    const auto original = m;
    oisa::netlist::transpose64(m);
    // Element-for-element check against the definition...
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = 0; j < 64; ++j) {
        ASSERT_EQ((m[j] >> i) & 1u, (original[i] >> j) & 1u)
            << "trial " << trial << " (" << i << ", " << j << ")";
      }
    }
    // ... and the round trip restores the input exactly.
    oisa::netlist::transpose64(m);
    ASSERT_EQ(m, original) << "trial " << trial;
  }
}

TEST(Transpose64Test, FixedPoints) {
  std::array<std::uint64_t, 64> zero{};
  oisa::netlist::transpose64(zero);
  for (const auto r : zero) EXPECT_EQ(r, 0u);

  std::array<std::uint64_t, 64> full{};
  for (auto& r : full) r = ~std::uint64_t{0};
  oisa::netlist::transpose64(full);
  for (const auto r : full) EXPECT_EQ(r, ~std::uint64_t{0});

  std::array<std::uint64_t, 64> identity{};
  for (std::size_t i = 0; i < 64; ++i) identity[i] = std::uint64_t{1} << i;
  oisa::netlist::transpose64(identity);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(identity[i], std::uint64_t{1} << i) << "row " << i;
  }
}

TEST(Transpose64Test, EveryKernelMatchesThePortableRounds) {
  std::vector<Matrix> inputs;
  inputs.push_back({});
  Matrix full{};
  full.fill(~std::uint64_t{0});
  inputs.push_back(full);
  Matrix identity{};
  for (std::size_t i = 0; i < 64; ++i) identity[i] = std::uint64_t{1} << i;
  inputs.push_back(identity);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      Matrix m{};
      m[i] = std::uint64_t{1} << j;
      inputs.push_back(m);
    }
  }
  OISA_TRACE_SEED(322);
  std::mt19937_64 rng(322);
  for (int trial = 0; trial < 1000; ++trial) {
    Matrix m;
    for (auto& r : m) r = rng();
    inputs.push_back(m);
  }
  for (const LaneArch arch : runnableArchs()) {
    const auto kernel = oisa::netlist::transpose64Kernel(arch);
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      Matrix got = inputs[n];
      kernel(got.data());
      ASSERT_EQ(got, transposeByRounds(inputs[n]))
          << laneSelectionName({arch}) << " input " << n;
    }
  }
  // The dispatched entry point runs one of them.
  Matrix got = inputs.back();
  oisa::netlist::transpose64(got);
  EXPECT_EQ(got, transposeByRounds(inputs.back()));
}

TEST(Transpose64Test, KernelsTheHostCannotRunAreRejected) {
  for (const LaneArch arch : {LaneArch::Avx2, LaneArch::Avx512}) {
    if (oisa::netlist::cpuSupportsLaneArch(arch)) continue;
    EXPECT_THROW((void)oisa::netlist::transpose64Kernel(arch),
                 std::invalid_argument);
    EXPECT_THROW(BulkMt19937_64(1, arch), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// BulkMt19937_64: std::mt19937_64's sequence through every refill kernel.
// ---------------------------------------------------------------------------

constexpr std::array<std::uint64_t, 3> kEngineSeeds = {
    0, 42, std::numeric_limits<std::uint64_t>::max()};

TEST(BulkMtTest, EveryKernelYieldsStdMt19937_64ForEverySeed) {
  for (const LaneArch arch : runnableArchs()) {
    for (const std::uint64_t seed : kEngineSeeds) {
      BulkMt19937_64 bulk(seed, arch);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(bulk(), ref())
            << laneSelectionName({arch}) << " seed " << seed << " draw " << i;
      }
    }
  }
  // The default constructions match too: std::mt19937_64's default seed,
  // and the kernel the CPU picks.
  BulkMt19937_64 bulk;
  std::mt19937_64 ref;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(bulk(), ref()) << "draw " << i;
}

TEST(BulkMtTest, SingleDrawsAndOddFillsInterleaveAcrossRefills) {
  // Each schedule entry is a run of single draws (negative) or one fill
  // call (positive); the runs put draws 311-313 and 623-625 on both
  // sides of a call boundary, and one fill spans whole refills.
  const std::vector<std::vector<int>> schedules = {
      {-311, 3, -309, 1, -2, 1001, 7},
      {309, -3, 1, -309, 3, -1, 625, -5},
      {-1, 311, -1, 311, -1, 1, 313, 3},
      {623, 1, 1, 1, 937, -313}};
  for (const LaneArch arch : runnableArchs()) {
    for (const std::uint64_t seed : kEngineSeeds) {
      for (std::size_t s = 0; s < schedules.size(); ++s) {
        BulkMt19937_64 bulk(seed, arch);
        std::mt19937_64 ref(seed);
        std::uint64_t drawn = 0;
        for (const int run : schedules[s]) {
          if (run < 0) {
            for (int i = 0; i < -run; ++i, ++drawn) {
              ASSERT_EQ(bulk(), ref()) << laneSelectionName({arch})
                                       << " seed " << seed << " schedule "
                                       << s << " draw " << drawn;
            }
            continue;
          }
          std::vector<std::uint64_t> words(static_cast<std::size_t>(run));
          bulk.fill(words);
          for (const std::uint64_t w : words) {
            ASSERT_EQ(w, ref()) << laneSelectionName({arch}) << " seed "
                                << seed << " schedule " << s
                                << " filled draw " << drawn;
            ++drawn;
          }
        }
      }
    }
  }
}

TEST(BulkMtTest, DistributionsDrawTheSameValuesThroughBothEngines) {
  for (const LaneArch arch : runnableArchs()) {
    BulkMt19937_64 bulk(7, arch);
    std::mt19937_64 ref(7);
    std::uniform_int_distribution<int> dice(1, 6);
    std::uniform_int_distribution<std::uint64_t> wide(
        0, std::numeric_limits<std::uint64_t>::max() / 3);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<float> span(-2.5f, 4.0f);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(dice(bulk), dice(ref)) << laneSelectionName({arch});
      ASSERT_EQ(wide(bulk), wide(ref)) << laneSelectionName({arch});
      ASSERT_EQ(unit(bulk), unit(ref)) << laneSelectionName({arch});
      ASSERT_EQ(span(bulk), span(ref)) << laneSelectionName({arch});
    }
  }
}

/// A workload's stream replayed on std::mt19937_64: each call returns the
/// next stimulus.
using Replay = std::function<oisa::experiments::Stimulus()>;

Replay uniformReplay(int width, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  return [rng = std::mt19937_64(seed), mask]() mutable {
    const std::uint64_t a = rng() & mask;
    return oisa::experiments::Stimulus{a, rng() & mask, false};
  };
}

Replay randomWalkReplay(int width, int stepBits, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const std::uint64_t stepMask = (std::uint64_t{1} << stepBits) - 1;
  std::mt19937_64 rng(seed);
  const std::uint64_t a0 = rng() & mask;
  const std::uint64_t b0 = rng() & mask;
  return [rng, mask, stepMask, a = a0, b = b0]() mutable {
    const std::uint64_t stepA = rng() & stepMask;
    const std::uint64_t stepB = rng() & stepMask;
    a = ((rng() & 1u) != 0 ? a + stepA : a - stepA) & mask;
    b = ((rng() & 1u) != 0 ? b + stepB : b - stepB) & mask;
    return oisa::experiments::Stimulus{a, b, false};
  };
}

Replay sparseToggleReplay(int width, double p, std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(seed);
  const std::uint64_t a0 = rng() & mask;
  const std::uint64_t b0 = rng() & mask;
  return [rng, width, p, a = a0, b = b0]() mutable {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int i = 0; i < width; ++i) {
      if (coin(rng) < p) a ^= std::uint64_t{1} << i;
      if (coin(rng) < p) b ^= std::uint64_t{1} << i;
    }
    return oisa::experiments::Stimulus{a, b, false};
  };
}

TEST(BulkMtTest, WorkloadStreamsEqualAStdMt19937_64Replay) {
  constexpr int kWidth = 24;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::pair<std::string, Replay>> kinds = {
      {"uniform", uniformReplay(kWidth, kSeed)},
      {"random-walk", randomWalkReplay(kWidth, 8, kSeed)},
      {"sparse-toggle", sparseToggleReplay(kWidth, 0.05, kSeed)}};
  for (const auto& [kind, replayFrom] : kinds) {
    Replay replay = replayFrom;
    const auto workload =
        oisa::experiments::makeWorkload(kind, kWidth, kSeed);
    // next() and fill() calls interleaved; the fills cross refills.
    std::uint64_t drawn = 0;
    for (const std::size_t size : {0, 1, 155, 157, 313, 2049, 64}) {
      const oisa::experiments::Stimulus one = workload->next();
      const oisa::experiments::Stimulus want = replay();
      ASSERT_EQ(one.a, want.a) << kind << " next() at " << drawn;
      ASSERT_EQ(one.b, want.b) << kind << " next() at " << drawn;
      ++drawn;
      std::vector<oisa::experiments::Stimulus> batch(size);
      workload->fill(batch);
      for (const auto& got : batch) {
        const oisa::experiments::Stimulus expect = replay();
        ASSERT_EQ(got.a, expect.a) << kind << " fill() at " << drawn;
        ASSERT_EQ(got.b, expect.b) << kind << " fill() at " << drawn;
        ASSERT_FALSE(got.carryIn) << kind;
        ++drawn;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Portable LaneBlock<W> primitives, all three widths through one typed
// suite. Every operation is checked word-for-word against plain uint64
// arithmetic on the backing storage.
// ---------------------------------------------------------------------------

template <class Block>
class LaneBlockTest : public ::testing::Test {};

using PortableBlocks =
    ::testing::Types<LaneBlock<64, LaneArch::Portable>,
                     LaneBlock<256, LaneArch::Portable>,
                     LaneBlock<512, LaneArch::Portable>>;
TYPED_TEST_SUITE(LaneBlockTest, PortableBlocks);

TYPED_TEST(LaneBlockTest, StaticShape) {
  using Block = TypeParam;
  static_assert(Block::kBits == Block::kWords * 64);
  static_assert(Block::kArch == LaneArch::Portable);
  EXPECT_EQ(sizeof(Block), Block::kWords * sizeof(std::uint64_t));
}

TYPED_TEST(LaneBlockTest, LoadStoreRoundTripAndWordSlicing) {
  using Block = TypeParam;
  OISA_TRACE_SEED(11);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    std::array<std::uint64_t, Block::kWords> src{};
    for (auto& w : src) w = rng();
    const Block b = Block::load(src.data());
    std::array<std::uint64_t, Block::kWords> dst{};
    b.store(dst.data());
    ASSERT_EQ(dst, src) << "trial " << trial;
    // word(j) is the slice-to-u64 primitive the differential harness
    // leans on: sub-word j must be lanes [64j, 64j + 64) exactly.
    for (std::size_t j = 0; j < Block::kWords; ++j) {
      ASSERT_EQ(b.word(j), src[j]) << "trial " << trial << " word " << j;
    }
  }
}

TYPED_TEST(LaneBlockTest, SplatZeroOnes) {
  using Block = TypeParam;
  const std::uint64_t pattern = 0xdeadbeefcafef00dull;
  const Block s = Block::splat(pattern);
  for (std::size_t j = 0; j < Block::kWords; ++j) {
    EXPECT_EQ(s.word(j), pattern) << "word " << j;
    EXPECT_EQ(Block::zero().word(j), 0u) << "word " << j;
    EXPECT_EQ(Block::ones().word(j), ~std::uint64_t{0}) << "word " << j;
  }
  EXPECT_FALSE(Block::zero().any());
  EXPECT_TRUE(Block::ones().any());
}

TYPED_TEST(LaneBlockTest, BitwiseOpsMatchScalarPerWord) {
  using Block = TypeParam;
  OISA_TRACE_SEED(12);
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 25; ++trial) {
    std::array<std::uint64_t, Block::kWords> wa{};
    std::array<std::uint64_t, Block::kWords> wb{};
    for (auto& w : wa) w = rng();
    for (auto& w : wb) w = rng();
    const Block a = Block::load(wa.data());
    const Block b = Block::load(wb.data());
    for (std::size_t j = 0; j < Block::kWords; ++j) {
      ASSERT_EQ((a & b).word(j), wa[j] & wb[j]);
      ASSERT_EQ((a | b).word(j), wa[j] | wb[j]);
      ASSERT_EQ((a ^ b).word(j), wa[j] ^ wb[j]);
      ASSERT_EQ((~a).word(j), ~wa[j]);
    }
  }
}

TYPED_TEST(LaneBlockTest, EqualityAndAny) {
  using Block = TypeParam;
  OISA_TRACE_SEED(13);
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    std::array<std::uint64_t, Block::kWords> wa{};
    for (auto& w : wa) w = rng();
    const Block a = Block::load(wa.data());
    ASSERT_TRUE(a == Block::load(wa.data()));
    ASSERT_FALSE((a ^ a).any());

    // Flip exactly one lane: equality must break, the XOR must expose
    // exactly that lane in exactly that sub-word ("any-lane-changed").
    const std::size_t lane = rng() % Block::kBits;
    auto wd = wa;
    wd[lane / 64] ^= std::uint64_t{1} << (lane % 64);
    const Block d = Block::load(wd.data());
    ASSERT_FALSE(a == d);
    const Block x = a ^ d;
    ASSERT_TRUE(x.any());
    for (std::size_t j = 0; j < Block::kWords; ++j) {
      ASSERT_EQ(x.word(j), j == lane / 64
                               ? std::uint64_t{1} << (lane % 64)
                               : 0u);
    }
  }
}

TYPED_TEST(LaneBlockTest, EvalGateBlockMatchesScalarGateEveryLane) {
  using Block = TypeParam;
  OISA_TRACE_SEED(14);
  std::mt19937_64 rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    std::array<std::uint64_t, Block::kWords> wa{};
    std::array<std::uint64_t, Block::kWords> wb{};
    std::array<std::uint64_t, Block::kWords> wc{};
    for (auto& w : wa) w = rng();
    for (auto& w : wb) w = rng();
    for (auto& w : wc) w = rng();
    const Block a = Block::load(wa.data());
    const Block b = Block::load(wb.data());
    const Block c = Block::load(wc.data());
    for (const GateKind kind : oisa::netlist::allGateKinds()) {
      const Block out = oisa::netlist::evalGateBlock(kind, a, b, c);
      for (std::size_t j = 0; j < Block::kWords; ++j) {
        for (unsigned lane = 0; lane < 64; ++lane) {
          const auto bit = [&](std::uint64_t w) {
            return ((w >> lane) & 1u) != 0;
          };
          ASSERT_EQ(bit(out.word(j)),
                    oisa::netlist::evalGate(kind, bit(wa[j]), bit(wb[j]),
                                            bit(wc[j])))
              << "trial " << trial << " kind " << static_cast<int>(kind)
              << " word " << j << " lane " << lane;
        }
      }
    }
  }
}

}  // namespace
