// netlist::readBench — the ISCAS-85 `.bench` importer: c17 end-to-end
// (structure + exhaustive functional equivalence against a hand-built
// NAND network), wide-gate decomposition, and the rejection diagnostics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "netlist/bench_io.h"
#include "netlist/gate.h"
#include "netlist/netlist.h"
#include "reference/evaluator.h"

namespace {

using oisa::netlist::Evaluator;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::netlist::readBenchString;

constexpr const char* kC17 = R"(
# c17 — smallest ISCAS-85 benchmark
# (comment and blank lines must be ignored)

INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIoTest, ParsesC17Structure) {
  const Netlist nl = readBenchString(kC17, "c17");
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.primaryInputs().size(), 5u);
  EXPECT_EQ(nl.primaryOutputs().size(), 2u);
  EXPECT_EQ(nl.gateCount(), 6u);
  EXPECT_EQ(nl.netCount(), 11u);
  const auto histogram = nl.histogram();
  EXPECT_EQ(histogram.of(GateKind::Nand2), 6u);
  EXPECT_EQ(histogram.total(), 6u);
  EXPECT_EQ(nl.outputName(0), "22");
  EXPECT_EQ(nl.outputName(1), "23");
}

TEST(BenchIoTest, C17MatchesHandBuiltNetworkExhaustively) {
  const Netlist parsed = readBenchString(kC17, "c17");

  Netlist built("c17ref");
  const NetId n1 = built.input("1");
  const NetId n2 = built.input("2");
  const NetId n3 = built.input("3");
  const NetId n6 = built.input("6");
  const NetId n7 = built.input("7");
  const NetId n10 = built.gate2(GateKind::Nand2, n1, n3);
  const NetId n11 = built.gate2(GateKind::Nand2, n3, n6);
  const NetId n16 = built.gate2(GateKind::Nand2, n2, n11);
  const NetId n19 = built.gate2(GateKind::Nand2, n11, n7);
  built.output("22", built.gate2(GateKind::Nand2, n10, n16));
  built.output("23", built.gate2(GateKind::Nand2, n16, n19));

  const Evaluator lhs(parsed);
  const Evaluator rhs(built);
  for (std::uint64_t p = 0; p < 32; ++p) {
    EXPECT_EQ(lhs.evaluateWord(p), rhs.evaluateWord(p)) << "pattern " << p;
  }
}

TEST(BenchIoTest, StatementsResolveInAnyOrder) {
  // Definition used before it appears; outputs declared first.
  const Netlist nl = readBenchString(R"(
OUTPUT(y)
y = AND(t, b)
t = NOT(a)
INPUT(a)
INPUT(b)
)");
  const Evaluator eval(nl);
  // y = !a & b; inputs in declaration order: a, b.
  EXPECT_EQ(eval.evaluateWord(0b10), 1u);  // a=0, b=1
  EXPECT_EQ(eval.evaluateWord(0b11), 0u);  // a=1, b=1
  EXPECT_EQ(eval.evaluateWord(0b00), 0u);
}

TEST(BenchIoTest, DecomposesWideGates) {
  const Netlist nl = readBenchString(R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(all)
OUTPUT(none)
OUTPUT(odd)
all = AND(a, b, c, d, e)
none = NOR(a, b, c, d, e)
odd = XOR(a, b, c, d, e)
)");
  const Evaluator eval(nl);
  for (std::uint64_t p = 0; p < 32; ++p) {
    const bool a = (p & 1) != 0;
    const bool b = (p & 2) != 0;
    const bool c = (p & 4) != 0;
    const bool d = (p & 8) != 0;
    const bool e = (p & 16) != 0;
    const std::uint64_t outputs = eval.evaluateWord(p);
    EXPECT_EQ(outputs & 1u, (a && b && c && d && e) ? 1u : 0u) << p;
    EXPECT_EQ((outputs >> 1) & 1u, (!a && !b && !c && !d && !e) ? 1u : 0u)
        << p;
    EXPECT_EQ((outputs >> 2) & 1u,
              static_cast<unsigned>(a ^ b ^ c ^ d ^ e))
        << p;
  }
}

TEST(BenchIoTest, SupportsNand3AndBuff) {
  const Netlist nl = readBenchString(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
y = NAND(a, b, c)
z = BUFF(a)
)");
  const Evaluator eval(nl);
  for (std::uint64_t p = 0; p < 8; ++p) {
    const bool a = (p & 1) != 0;
    const bool b = (p & 2) != 0;
    const bool c = (p & 4) != 0;
    const std::uint64_t outputs = eval.evaluateWord(p);
    EXPECT_EQ(outputs & 1u, !(a && b && c) ? 1u : 0u);
    EXPECT_EQ((outputs >> 1) & 1u, a ? 1u : 0u);
  }
}

TEST(BenchIoTest, RejectsMalformedInput) {
  // Undefined signal.
  EXPECT_THROW((void)readBenchString("INPUT(a)\nOUTPUT(y)\ny = AND(a, q)\n"),
               std::runtime_error);
  // Double definition.
  EXPECT_THROW((void)readBenchString(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"),
               std::runtime_error);
  // Sequential element.
  EXPECT_THROW(
      (void)readBenchString("INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n"),
      std::runtime_error);
  // Unknown cell.
  EXPECT_THROW(
      (void)readBenchString("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
      std::runtime_error);
  // Combinational cycle.
  EXPECT_THROW((void)readBenchString(
                   "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n"),
               std::runtime_error);
  // NOT arity.
  EXPECT_THROW(
      (void)readBenchString("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n"),
      std::runtime_error);
  // Garbage line.
  EXPECT_THROW((void)readBenchString("INPUT(a)\nwhat is this\n"),
               std::runtime_error);
}

TEST(BenchIoTest, DeepChainsResolveWithoutRecursion) {
  // A generated 40000-deep inverter chain must parse (iterative
  // resolution), not overflow the call stack.
  constexpr int kDepth = 40000;
  std::string text = "INPUT(g0)\nOUTPUT(g" + std::to_string(kDepth) + ")\n";
  for (int i = 1; i <= kDepth; ++i) {
    text += "g" + std::to_string(i) + " = NOT(g" + std::to_string(i - 1) +
            ")\n";
  }
  const Netlist nl = readBenchString(text, "chain");
  EXPECT_EQ(nl.gateCount(), static_cast<std::size_t>(kDepth));
  const Evaluator eval(nl);
  // Even inverter count: the chain is the identity.
  EXPECT_EQ(eval.evaluateWord(1), 1u);
  EXPECT_EQ(eval.evaluateWord(0), 0u);
}

TEST(BenchIoTest, MissingFileThrows) {
  EXPECT_THROW((void)oisa::netlist::readBenchFile("/nonexistent/x.bench"),
               std::runtime_error);
}

}  // namespace
