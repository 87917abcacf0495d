// Robustness boundaries: every malformed input in tests/data/malformed/
// comes back as a diagnostic Status (never a crash, never UB), and the
// file.open fault-injection site drives the IoError paths. Model-file
// integrity (flip-any-byte, truncate-anywhere) lives with the binary
// envelope in flat_forest_test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fault_inject.h"
#include "core/status.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"

namespace {

using oisa::core::ScopedFaultPlan;
using oisa::core::StatusCode;

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
