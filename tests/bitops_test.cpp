// Exhaustive-ish unit coverage of the word-level primitives everything
// else is built on: the 64x64 bit-matrix transpose (netlist/bitops.h) and
// the portable LaneBlock<W> register type (netlist/lane_block.h) at every
// supported width. The intrinsic (AVX2/AVX-512) specializations are
// deliberately not nameable here — only the -m-flagged dispatch TUs may
// instantiate them — so their equivalence is proven end-to-end through
// the dispatched engines in lane_width_test.cpp instead.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>

#include "netlist/batch_evaluator.h"
#include "netlist/bitops.h"
#include "netlist/gate.h"
#include "netlist/lane_block.h"

#include "differential_harness.h"

namespace {

using oisa::netlist::GateKind;
using oisa::netlist::LaneArch;
using oisa::netlist::LaneBlock;

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

TYPED_TEST(LaneBlockTest, EvalGateBlockMatchesEvalGateWordEverySubWord) {
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
        ASSERT_EQ(out.word(j),
                  oisa::netlist::evalGateWord(kind, wa[j], wb[j], wc[j]))
            << "trial " << trial << " kind " << static_cast<int>(kind)
            << " word " << j;
      }
    }
  }
}

}  // namespace
