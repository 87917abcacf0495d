// Unit tests of the ROBDD engine (netlist/bdd.h): canonical form, the
// truth-table gate expansion, mark/release rollback of the unique table
// and the computed cache, and the node cap.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "netlist/bdd.h"

namespace {

using oisa::netlist::Bdd;

/// Evaluates `f` under `x` (bit v = value of variable v) by building the
/// restriction with ITE: f is true there exactly when f AND the minterm
/// is not the zero function.
bool holds(Bdd& bdd, Bdd::Node f, std::uint32_t vars, std::uint32_t x) {
  Bdd::Node cube = Bdd::kTrue;
  for (std::uint32_t v = 0; v < vars; ++v) {
    const Bdd::Node lit = ((x >> v) & 1u) != 0
                              ? bdd.var(v)
                              : bdd.ite(bdd.var(v), Bdd::kFalse, Bdd::kTrue);
    cube = bdd.ite(cube, lit, Bdd::kFalse);
  }
  return bdd.ite(f, cube, Bdd::kFalse) != Bdd::kFalse;
}

Bdd::Node notOf(Bdd& bdd, Bdd::Node f) {
  return bdd.ite(f, Bdd::kFalse, Bdd::kTrue);
}

TEST(BddTest, EquivalentFormulasShareOneNode) {
  Bdd bdd;
  const Bdd::Node x = bdd.var(0);
  const Bdd::Node y = bdd.var(1);
  const Bdd::Node andXy = bdd.ite(x, y, Bdd::kFalse);
  // not(not x or not y)
  const Bdd::Node orNots =
      bdd.ite(notOf(bdd, x), Bdd::kTrue, notOf(bdd, y));
  EXPECT_EQ(notOf(bdd, orNots), andXy);
  EXPECT_EQ(notOf(bdd, notOf(bdd, x)), x);
  EXPECT_EQ(bdd.ite(x, notOf(bdd, x), Bdd::kFalse), Bdd::kFalse);
  EXPECT_EQ(bdd.var(1), y);
}

TEST(BddTest, GateExpandsTheTruthTableAndIgnoresUnusedPins) {
  Bdd bdd;
  const std::array<Bdd::Node, 3> pins = {bdd.var(0), bdd.var(1), bdd.var(2)};
  // Every 3-input table: the gate node evaluates to the table entry on
  // each minterm.
  for (unsigned truth = 0; truth < 256; ++truth) {
    const Bdd::Node f = bdd.gate(static_cast<std::uint8_t>(truth), pins);
    for (std::uint32_t m = 0; m < 8; ++m) {
      ASSERT_EQ(holds(bdd, f, 3, m), ((truth >> m) & 1u) != 0)
          << "truth " << truth << " minterm " << m;
    }
  }
  // A 2-input AND (pin 2 unused): the same node whatever pin 2 holds,
  // even the overflow sentinel.
  const Bdd::Node andXy = bdd.ite(pins[0], pins[1], Bdd::kFalse);
  EXPECT_EQ(bdd.gate(0x88, {pins[0], pins[1], pins[2]}), andXy);
  EXPECT_EQ(bdd.gate(0x88, {pins[0], pins[1], Bdd::kOverflow}), andXy);
}

TEST(BddTest, ReleaseRestoresTheNodeCountAndKeepsWhatPrecedesTheMark) {
  Bdd bdd;
  const Bdd::Node x = bdd.var(0);
  const Bdd::Node y = bdd.var(1);
  const Bdd::Node z = bdd.var(2);
  const Bdd::Node andXy = bdd.ite(x, y, Bdd::kFalse);
  const std::size_t base = bdd.nodeCount();
  bdd.mark();

  ASSERT_NE(bdd.ite(x, y, z), Bdd::kOverflow);
  EXPECT_GT(bdd.nodeCount(), base);
  bdd.release();
  EXPECT_EQ(bdd.nodeCount(), base);

  // A pre-mark result still answers from the cache, creating nothing.
  const std::uint64_t hits = bdd.cacheHits();
  EXPECT_EQ(bdd.ite(x, y, Bdd::kFalse), andXy);
  EXPECT_EQ(bdd.cacheHits(), hits + 1);
  EXPECT_EQ(bdd.nodeCount(), base);

  // Reuse the released indices for other functions, then redo the
  // released operation: a stale cache entry would return an index that
  // now names one of them.
  const Bdd::Node orYz = bdd.ite(y, Bdd::kTrue, z);
  const Bdd::Node xorYz = bdd.ite(y, notOf(bdd, z), z);
  const Bdd::Node again = bdd.ite(x, y, z);
  EXPECT_NE(again, orYz);
  EXPECT_NE(again, xorYz);
  for (std::uint32_t m = 0; m < 8; ++m) {
    const bool vx = (m & 1u) != 0;
    const bool vy = (m & 2u) != 0;
    const bool vz = (m & 4u) != 0;
    ASSERT_EQ(holds(bdd, again, 3, m), vx ? vy : vz) << "minterm " << m;
  }
}

TEST(BddTest, BuildingPastTheCapReportsOverflow) {
  // x0 y0 + x1 y1 + ... with every x ordered before every y needs 2^n
  // nodes: the diagram must remember which x's were set.
  Bdd bdd;
  constexpr std::uint32_t kPairs = 18;
  Bdd::Node sum = Bdd::kFalse;
  for (std::uint32_t i = 0; i < kPairs && sum != Bdd::kOverflow; ++i) {
    const Bdd::Node term =
        bdd.ite(bdd.var(i), bdd.var(kPairs + i), Bdd::kFalse);
    sum = bdd.ite(sum, Bdd::kTrue, term);
  }
  EXPECT_EQ(sum, Bdd::kOverflow);
  EXPECT_LE(bdd.nodeCount(), Bdd::kNodeCap);
  // Overflow propagates through every later operation.
  EXPECT_EQ(bdd.ite(sum, Bdd::kTrue, Bdd::kFalse), Bdd::kOverflow);
  EXPECT_EQ(bdd.ite(bdd.var(0), sum, Bdd::kFalse), Bdd::kOverflow);

  // The same function in the interleaved order stays linear.
  Bdd interleaved;
  Bdd::Node small = Bdd::kFalse;
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    const Bdd::Node term = interleaved.ite(
        interleaved.var(2 * i), interleaved.var(2 * i + 1), Bdd::kFalse);
    small = interleaved.ite(small, Bdd::kTrue, term);
  }
  EXPECT_NE(small, Bdd::kOverflow);
  EXPECT_LT(interleaved.nodeCount(), 1000u);
}

}  // namespace
