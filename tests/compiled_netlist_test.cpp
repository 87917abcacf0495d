// CompiledNetlist edge cases: dangling (reader-less) nets, one net feeding
// several pins of the same gate (the merged pin-mask CSR path), and
// single-gate and port-only designs.
#include <gtest/gtest.h>

#include "netlist/batch_evaluator.h"
#include "netlist/compiled_netlist.h"
#include "netlist/gate.h"
#include "netlist/netlist.h"
#include "reference/evaluator.h"

namespace {

using oisa::netlist::BatchEvaluator;
using oisa::netlist::CompiledNetlist;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;

TEST(CompiledNetlistTest, DanglingNetsCompileWithEmptyFanout) {
  // `spare` drives nothing and is not an output; `tap` is an output read
  // by nobody. Both must compile with empty reader ranges and correct
  // settled state.
  Netlist nl("dangle");
  const NetId a = nl.input("a");
  const NetId spare = nl.gate1(GateKind::Inv, a, "spare");
  const NetId tap = nl.gate1(GateKind::Inv, a, "tap");
  nl.output("tap", tap);
  nl.output("y", nl.gate1(GateKind::Buf, a, "y"));

  const auto compiled = CompiledNetlist::compile(nl);
  const auto offsets = compiled->fanoutOffsets();
  EXPECT_EQ(offsets[spare.value + 1] - offsets[spare.value], 0u);
  EXPECT_EQ(offsets[tap.value + 1] - offsets[tap.value], 0u);
  // All inputs low: both inverters settle high.
  EXPECT_EQ(compiled->zeroState()[spare.value], 1u);
  EXPECT_EQ(compiled->zeroState()[tap.value], 1u);

  const BatchEvaluator eval(compiled);
  const std::uint64_t aWord = 0xf0f0f0f0f0f0f0f0ull;
  const auto values = eval.evaluate(std::vector<std::uint64_t>{aWord});
  EXPECT_EQ(values[spare.value], ~aWord);
  EXPECT_EQ(values[tap.value], ~aWord);
  EXPECT_EQ(values[nl.primaryOutputs()[1].value], aWord);
}

TEST(CompiledNetlistTest, MergedPinMasksEvaluateCorrectly) {
  // One net on several pins of the same gate must become a single CSR
  // entry with the combined minterm mask, and evaluation must match the
  // scalar evaluator on every pattern.
  Netlist nl("merge");
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  const NetId both = nl.gate2(GateKind::And2, a, a, "aa");    // pins 0+1
  const NetId mux = nl.gate3(GateKind::Mux2, a, b, a, "m");   // pins 0+2
  const NetId maj = nl.gate3(GateKind::Maj3, b, b, b, "mmm"); // pins 0+1+2
  nl.output("both", both);
  nl.output("mux", mux);
  nl.output("maj", maj);

  const auto compiled = CompiledNetlist::compile(nl);
  const auto offsets = compiled->fanoutOffsets();
  const auto readers = compiled->readers();
  // a feeds gate 0 (pins 0,1) and gate 1 (pins 0,2): two merged entries.
  ASSERT_EQ(offsets[a.value + 1] - offsets[a.value], 2u);
  EXPECT_EQ(readers[offsets[a.value]] & 7u, 0b011u);
  EXPECT_EQ(readers[offsets[a.value] + 1] & 7u, 0b101u);
  // b feeds gate 1 (pin 1) and gate 2 (pins 0,1,2).
  ASSERT_EQ(offsets[b.value + 1] - offsets[b.value], 2u);
  EXPECT_EQ(readers[offsets[b.value]] & 7u, 0b010u);
  EXPECT_EQ(readers[offsets[b.value] + 1] & 7u, 0b111u);

  const oisa::netlist::Evaluator scalar(nl);
  const BatchEvaluator batch(compiled);
  // Lane p carries pattern p: input i is bit i of p.
  const auto outWords =
      batch.evaluateOutputs(std::vector<std::uint64_t>{0b1010, 0b1100});
  for (std::uint64_t p = 0; p < 4; ++p) {
    std::uint64_t outputs = 0;
    for (std::size_t o = 0; o < outWords.size(); ++o) {
      outputs |= ((outWords[o] >> p) & 1u) << o;
    }
    EXPECT_EQ(outputs, scalar.evaluateWord(p)) << "pattern " << p;
  }
}

TEST(CompiledNetlistTest, SingleGateDesigns) {
  for (const GateKind kind :
       {GateKind::Inv, GateKind::Buf, GateKind::Nand2}) {
    Netlist nl("one");
    const int arity = oisa::netlist::gateArity(kind);
    std::vector<NetId> ins;
    for (int i = 0; i < arity; ++i) {
      ins.push_back(nl.input("i" + std::to_string(i)));
    }
    nl.output("y", nl.gate(kind, ins, "y"));
    const auto compiled = CompiledNetlist::compile(nl);
    EXPECT_EQ(compiled->gateCount(), 1u);
    // Settled all-low state matches the gate function at minterm 0.
    EXPECT_EQ(compiled->zeroState()[compiled->gate(0).out],
              oisa::netlist::evalGate(kind, false, false, false) ? 1u : 0u);
  }
}

TEST(CompiledNetlistTest, ConstantOnlyDesignCompiles) {
  // No primary inputs at all: a lone constant driver feeding the output.
  Netlist nl("const");
  nl.output("y", nl.constant(true));
  const auto compiled = CompiledNetlist::compile(nl);
  EXPECT_EQ(compiled->inputNets().size(), 0u);
  ASSERT_EQ(compiled->outputNets().size(), 1u);
  EXPECT_EQ(compiled->zeroState()[compiled->outputNets()[0]], 1u);
  const BatchEvaluator eval(compiled);
  const auto out = eval.evaluateOutputs(std::span<const std::uint64_t>{});
  EXPECT_EQ(out[0], ~std::uint64_t{0});
}

TEST(CompiledNetlistTest, PrimaryInputAsOutputPassesThrough) {
  // An output net that is itself a primary input (no gates at all).
  Netlist nl("wire");
  const NetId a = nl.input("a");
  nl.output("y", a);
  const auto compiled = CompiledNetlist::compile(nl);
  EXPECT_EQ(compiled->gateCount(), 0u);
  const BatchEvaluator eval(compiled);
  const std::uint64_t w = 0x123456789abcdef0ull;
  EXPECT_EQ(eval.evaluateOutputs(std::vector<std::uint64_t>{w})[0], w);
}

}  // namespace
