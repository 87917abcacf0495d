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
    const auto result = oisa::netlist::readBenchFile(dataPath(c.file));
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
  const auto result = oisa::netlist::readBenchString(c17, "c17");
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_EQ(result.value().primaryInputs().size(), 5u);
  EXPECT_EQ(result.value().primaryOutputs().size(), 2u);
}

TEST(MalformedBenchTest, MissingFileIsIoError) {
  const auto result =
      oisa::netlist::readBenchFile(dataPath("does_not_exist.bench"));
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), StatusCode::IoError);
}

TEST(MalformedBenchTest, FileOpenInjectionFiresBeforeTheFilesystem) {
  ScopedFaultPlan plan("file.open:*");
  const auto result =
      oisa::netlist::readBenchFile(dataPath("unterminated.bench"));
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), StatusCode::IoError);
  EXPECT_NE(result.status().message().find("file.open"), std::string::npos);
}

// --- fault-plan hygiene ------------------------------------------------

TEST(FaultPlanHygieneTest, ArmingAnUnknownSiteNamesIt) {
  namespace fi = oisa::core::fault_inject;
  // A typo'd site would silently inject nothing, so arm() refuses it
  // and leaves nothing armed.
  try {
    fi::arm("file.open:1,grid.cel:*");
    fi::reset();
    FAIL() << "arm accepted an unknown site";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("'grid.cel'"), std::string::npos)
        << e.status().message();
  }
  EXPECT_FALSE(fi::shouldFail(fi::kFileOpen));
}

}  // namespace
