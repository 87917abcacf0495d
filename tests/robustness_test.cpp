// Robustness boundaries: every malformed input in tests/data/malformed/
// comes back as a diagnostic Status (never a crash, never UB), the
// Verilog import/export round-trip is functionally exact, and the
// file.open fault-injection site drives the IoError paths. Model-file
// integrity (flip-any-byte, truncate-anywhere) lives with the binary
// envelope in flat_forest_test.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_inject.h"
#include "core/status.h"
#include "netlist/bench_io.h"
#include "netlist/equivalence.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"

namespace {

using oisa::core::ScopedFaultPlan;
using oisa::core::StatusCode;
using oisa::netlist::GateKind;
using oisa::netlist::Netlist;

std::string dataPath(const std::string& name) {
  return std::string(OISA_TEST_DATA_DIR) + "/malformed/" + name;
}

// --- .bench corpus ----------------------------------------------------

struct CorpusCase {
  const char* file;
  const char* expectInMessage;  ///< diagnostic must mention this
};

TEST(MalformedBenchTest, EveryCorpusFileReturnsDiagnosticStatus) {
  const std::vector<CorpusCase> corpus = {
      {"unterminated.bench", "expected"},
      {"duplicate_net.bench", "defined twice"},
      {"self_ref.bench", "cycle"},
      {"undefined.bench", "never defined"},
      {"dff.bench", "sequential"},
      {"wide_gate.bench", "absurd fan-in"},
      {"garbage.bin", ""},
  };
  for (const CorpusCase& c : corpus) {
    const auto result = oisa::netlist::readBenchFileStatus(dataPath(c.file));
    ASSERT_FALSE(result.isOk()) << c.file << " should have been rejected";
    EXPECT_EQ(result.status().code(), StatusCode::InvalidInput) << c.file;
    EXPECT_FALSE(result.status().message().empty()) << c.file;
    if (c.expectInMessage[0] != '\0') {
      EXPECT_NE(result.status().message().find(c.expectInMessage),
                std::string::npos)
          << c.file << ": got '" << result.status().message() << "'";
    }
  }
}

TEST(MalformedBenchTest, ValidBenchStillParses) {
  // Control: the harness itself accepts well-formed text (ISCAS-85 c17).
  const char* c17 =
      "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n"
      "OUTPUT(G22)\nOUTPUT(G23)\n"
      "G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n"
      "G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n";
  const auto result = oisa::netlist::readBenchStringStatus(c17, "c17");
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_EQ(result.value().primaryInputs().size(), 5u);
  EXPECT_EQ(result.value().primaryOutputs().size(), 2u);
}

TEST(MalformedBenchTest, MissingFileIsIoError) {
  const auto result =
      oisa::netlist::readBenchFileStatus(dataPath("does_not_exist.bench"));
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), StatusCode::IoError);
}

TEST(MalformedBenchTest, FileOpenInjectionFiresBeforeTheFilesystem) {
  ScopedFaultPlan plan("file.open:*");
  const auto result =
      oisa::netlist::readBenchFileStatus(dataPath("unterminated.bench"));
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), StatusCode::IoError);
  EXPECT_NE(result.status().message().find("file.open"), std::string::npos);
}

// --- Verilog corpus and round-trip ------------------------------------

TEST(MalformedVerilogTest, EveryCorpusFileReturnsDiagnosticStatus) {
  const std::vector<CorpusCase> corpus = {
      {"unterminated.v", "endmodule"},
      {"duplicate_net.v", "assigned twice"},
      {"self_ref.v", "cycle"},
      {"bad_literal.v", "literal"},
      {"missing_semicolon.v", ""},
      {"garbage.bin", ""},
  };
  for (const CorpusCase& c : corpus) {
    const auto result = oisa::netlist::readVerilogFile(dataPath(c.file));
    ASSERT_FALSE(result.isOk()) << c.file << " should have been rejected";
    EXPECT_EQ(result.status().code(), StatusCode::InvalidInput) << c.file;
    EXPECT_FALSE(result.status().message().empty()) << c.file;
    if (c.expectInMessage[0] != '\0') {
      EXPECT_NE(result.status().message().find(c.expectInMessage),
                std::string::npos)
          << c.file << ": got '" << result.status().message() << "'";
    }
  }
}

/// A netlist exercising every gate kind writeVerilog can emit.
Netlist allKindsNetlist() {
  Netlist nl("all_kinds");
  const auto a = nl.input("a");
  const auto b = nl.input("b");
  const auto c = nl.input("c");
  const auto inv = nl.gate1(GateKind::Inv, a, "inv");
  const auto buf = nl.gate1(GateKind::Buf, b, "buf_n");
  const auto and2 = nl.gate2(GateKind::And2, a, b, "and2");
  const auto or2 = nl.gate2(GateKind::Or2, inv, c, "or2");
  const auto nand2 = nl.gate2(GateKind::Nand2, a, c, "nand2");
  const auto nor2 = nl.gate2(GateKind::Nor2, b, c, "nor2");
  const auto xor2 = nl.gate2(GateKind::Xor2, a, b, "xor2");
  const auto xnor2 = nl.gate2(GateKind::Xnor2, and2, or2, "xnor2");
  const auto and3 = nl.gate3(GateKind::And3, a, b, c, "and3");
  const auto or3 = nl.gate3(GateKind::Or3, inv, buf, c, "or3");
  const auto aoi = nl.gate3(GateKind::Aoi21, a, b, c, "aoi");
  const auto oai = nl.gate3(GateKind::Oai21, a, b, c, "oai");
  const auto mux = nl.gate3(GateKind::Mux2, nand2, nor2, c, "mux");
  const auto maj = nl.gate3(GateKind::Maj3, a, b, c, "maj");
  const auto k0 = nl.constant(false);
  const auto k1 = nl.constant(true);
  const auto withConst = nl.gate2(GateKind::Or2, k0, xor2, "with_const0");
  const auto withConst1 = nl.gate2(GateKind::And2, k1, xnor2, "with_const1");
  nl.output("y0", and3);
  nl.output("y1", or3);
  nl.output("y2", aoi);
  nl.output("y3", oai);
  nl.output("y4", mux);
  nl.output("y5", maj);
  nl.output("y6", withConst);
  nl.output("y7", withConst1);
  nl.validate();
  return nl;
}

TEST(VerilogRoundTripTest, AllGateKindsSurviveFunctionally) {
  const Netlist original = allKindsNetlist();
  std::ostringstream verilog;
  oisa::netlist::writeVerilog(original, verilog);
  auto reread = oisa::netlist::readVerilogString(verilog.str());
  ASSERT_TRUE(reread.isOk()) << reread.status().toString();
  // Decomposition differs (~(a&b) becomes Inv(And2), not Nand2), so the
  // round-trip contract is functional equivalence, not gate identity.
  const auto eq =
      oisa::netlist::checkEquivalence(original, reread.value());
  EXPECT_TRUE(eq.equivalent) << eq.message;
}

TEST(VerilogRoundTripTest, RereadOutputMatchesPortShape) {
  const Netlist original = allKindsNetlist();
  std::ostringstream verilog;
  oisa::netlist::writeVerilog(original, verilog);
  auto reread = oisa::netlist::readVerilogString(verilog.str());
  ASSERT_TRUE(reread.isOk()) << reread.status().toString();
  EXPECT_EQ(reread.value().primaryInputs().size(),
            original.primaryInputs().size());
  EXPECT_EQ(reread.value().primaryOutputs().size(),
            original.primaryOutputs().size());
  EXPECT_EQ(reread.value().name(), original.name());
}

TEST(VerilogReaderTest, FileOpenInjectionAndMissingFileAreIoErrors) {
  {
    ScopedFaultPlan plan("file.open:*");
    const auto result =
        oisa::netlist::readVerilogFile(dataPath("duplicate_net.v"));
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::IoError);
  }
  const auto missing =
      oisa::netlist::readVerilogFile(dataPath("does_not_exist.v"));
  ASSERT_FALSE(missing.isOk());
  EXPECT_EQ(missing.status().code(), StatusCode::IoError);
}

// --- fault-plan hygiene ------------------------------------------------

TEST(FaultPlanHygieneTest, ArmedButNeverHitSitesAreListed) {
  namespace fi = oisa::core::fault_inject;
  // A plan with a typo'd site name would silently inject nothing — the
  // registry tracks which armed rules no shouldFail() ever reached (the
  // same list the at-exit warning prints).
  ScopedFaultPlan plan("file.open:1,worker.spwan:*");  // note the typo
  EXPECT_EQ(fi::armedUnhitSites(),
            (std::vector<std::string>{"file.open", "worker.spwan"}));
  // Hitting a site removes it from the unhit list, even when this
  // particular hit was not scheduled to fail.
  (void)fi::shouldFail(fi::kFileOpen);
  EXPECT_EQ(fi::armedUnhitSites(),
            (std::vector<std::string>{"worker.spwan"}));
  EXPECT_EQ(fi::hitCount(fi::kFileOpen), 1u);
}

TEST(FaultPlanHygieneTest, ResetClearsTheUnhitList) {
  namespace fi = oisa::core::fault_inject;
  {
    ScopedFaultPlan plan("checkpoint.write:3");
    EXPECT_FALSE(fi::armedUnhitSites().empty());
  }
  // Disarmed: nothing is pending, so nothing can warn at exit.
  EXPECT_TRUE(fi::armedUnhitSites().empty());
}

}  // namespace
