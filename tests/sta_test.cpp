// Static timing analysis tests: arrival/slack math on hand-built netlists,
// fanout-loaded delays, critical-path extraction, and the slack-relaxation
// (power-recovery) pass invariants.
#include <gtest/gtest.h>

#include <random>

#include "circuits/isa_netlist.h"
#include "netlist/netlist.h"
#include "timing/cell_library.h"
#include "timing/delay_annotation.h"
#include "timing/relaxation.h"
#include "timing/sta.h"

namespace {

using oisa::netlist::GateKind;
using oisa::netlist::Netlist;
using oisa::netlist::NetId;
using oisa::timing::CellLibrary;
using oisa::timing::DelayAnnotation;
using oisa::timing::StaResult;

CellLibrary unitLibrary() {
  CellLibrary lib;
  for (const GateKind kind : oisa::netlist::allGateKinds()) {
    lib.cell(kind) = oisa::timing::CellTiming{1.0, 0.0, 1.0};
  }
  lib.cell(GateKind::Const0) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  lib.cell(GateKind::Const1) = oisa::timing::CellTiming{0.0, 0.0, 0.0};
  return lib;
}

TEST(StaTest, ChainArrivalIsDepthTimesDelay) {
  Netlist nl;
  NetId n = nl.input("a");
  for (int i = 0; i < 5; ++i) n = nl.gate1(GateKind::Inv, n);
  nl.output("y", n);
  const DelayAnnotation delays(nl, unitLibrary());
  const StaResult sta = analyze(nl, delays, 10.0);
  EXPECT_DOUBLE_EQ(sta.criticalDelayNs, 5.0);
  EXPECT_DOUBLE_EQ(sta.worstSlackNs(), 5.0);
  ASSERT_EQ(sta.criticalPath.size(), 5u);
  EXPECT_DOUBLE_EQ(sta.criticalPath.front().arrivalNs, 1.0);
  EXPECT_DOUBLE_EQ(sta.criticalPath.back().arrivalNs, 5.0);
}

TEST(StaTest, ReconvergentPathsTakeWorstArrival) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId shortPath = nl.gate1(GateKind::Inv, a);
  NetId longPath = a;
  for (int i = 0; i < 3; ++i) longPath = nl.gate1(GateKind::Buf, longPath);
  const NetId joined = nl.gate2(GateKind::And2, shortPath, longPath);
  nl.output("y", joined);
  const DelayAnnotation delays(nl, unitLibrary());
  const StaResult sta = analyze(nl, delays, 5.0);
  EXPECT_DOUBLE_EQ(sta.criticalDelayNs, 4.0);
  // The short branch finishes at 1 ns but is only required by 5 - 1 = 4 ns
  // (period minus the AND): 3 ns of slack. The long branch has 1 ns.
  const auto& inv = nl.net(shortPath);
  EXPECT_DOUBLE_EQ(sta.gateSlack[inv.driverGate.value], 3.0);
  const auto& join = nl.net(joined);
  EXPECT_DOUBLE_EQ(sta.gateSlack[join.driverGate.value], 1.0);
}

TEST(StaTest, FanoutLoadIncreasesDelay) {
  CellLibrary lib = unitLibrary();
  lib.cell(GateKind::Inv) = oisa::timing::CellTiming{1.0, 0.5, 1.0};
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId hub = nl.gate1(GateKind::Inv, a);
  (void)nl.gate1(GateKind::Buf, hub);
  (void)nl.gate1(GateKind::Buf, hub);
  nl.output("y", nl.gate1(GateKind::Buf, hub));
  const DelayAnnotation delays(nl, lib);
  // hub drives 3 readers -> 1.0 + 0.5 * 2 = 2.0 ns.
  EXPECT_DOUBLE_EQ(delays.delayNs(nl.net(hub).driverGate), 2.0);
}

TEST(StaTest, AreaSumsCellCosts) {
  CellLibrary lib = unitLibrary();
  lib.cell(GateKind::Xor2) = oisa::timing::CellTiming{1.0, 0.0, 2.5};
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  (void)nl.gate2(GateKind::Xor2, a, b);
  (void)nl.gate2(GateKind::And2, a, b);
  EXPECT_DOUBLE_EQ(totalArea(nl, lib), 3.5);
}

TEST(StaTest, CriticalPathBacktracksWorstInputs) {
  Netlist nl;
  const NetId a = nl.input("a");
  const NetId b = nl.input("b");
  NetId deep = a;
  for (int i = 0; i < 4; ++i) deep = nl.gate1(GateKind::Buf, deep);
  const NetId shallow = nl.gate1(GateKind::Inv, b);
  nl.output("y", nl.gate2(GateKind::Or2, deep, shallow));
  const DelayAnnotation delays(nl, unitLibrary());
  const StaResult sta = analyze(nl, delays, 10.0);
  ASSERT_EQ(sta.criticalPath.size(), 5u);  // 4 bufs + or
  for (std::size_t i = 0; i + 1 < sta.criticalPath.size(); ++i) {
    EXPECT_LT(sta.criticalPath[i].arrivalNs,
              sta.criticalPath[i + 1].arrivalNs);
  }
}

TEST(RelaxationTest, ConsumesSlackWithoutBreakingTiming) {
  // ISA netlist with plenty of slack at 0.3 ns: relaxation should slow
  // non-critical gates but never break the sign-off constraint.
  const auto cfg = oisa::core::makeIsa(8, 0, 0, 4);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  DelayAnnotation delays(nl, lib);

  const double maxSlowdown = 1.05;
  const auto report = relaxSlack(nl, delays, 0.3, maxSlowdown);

  EXPECT_LE(report.criticalBeforeNs, 0.3);
  EXPECT_LE(report.criticalAfterNs, 0.3 + 1e-9);
  EXPECT_GE(report.criticalAfterNs, report.criticalBeforeNs - 1e-9);
  EXPECT_GT(report.meanSlowdown, 1.0);
  EXPECT_LE(report.meanSlowdown, maxSlowdown + 1e-9);
}

TEST(RelaxationTest, CapLimitsPerGateSlowdown) {
  Netlist nl;
  NetId n = nl.input("a");
  n = nl.gate1(GateKind::Inv, n);
  nl.output("y", n);
  const CellLibrary lib = unitLibrary();
  DelayAnnotation delays(nl, lib);
  (void)relaxSlack(nl, delays, 100.0, 1.5);  // huge slack
  // Even with enormous slack the single gate may slow at most 1.5x, and
  // the pass's fixed rounds take it all the way to that cap.
  EXPECT_DOUBLE_EQ(delays.delayNs(oisa::netlist::GateId{0}), 1.5);
}

TEST(DelayAnnotationTest, VariationIsBoundedAndSeeded) {
  const auto cfg = oisa::core::makeExact(32);
  const Netlist nl = oisa::circuits::buildIsaNetlist(cfg);
  const CellLibrary lib = CellLibrary::generic65();
  DelayAnnotation a(nl, lib);
  DelayAnnotation b(nl, lib);
  std::mt19937_64 rngA(5), rngB(5);
  a.applyVariation(rngA, 0.05);
  b.applyVariation(rngB, 0.05);
  bool anyChanged = false;
  for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
    const oisa::netlist::GateId gid{g};
    EXPECT_DOUBLE_EQ(a.delayNs(gid), b.delayNs(gid));  // deterministic
    EXPECT_GE(a.delayNs(gid), 0.0);
    const DelayAnnotation fresh(nl, lib);
    if (a.delayNs(gid) != fresh.delayNs(gid)) anyChanged = true;
  }
  EXPECT_TRUE(anyChanged);
}

}  // namespace
