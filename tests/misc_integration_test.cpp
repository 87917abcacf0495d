// Cross-module integration odds and ends: CSV and bench-JSON file output
// (including the write-error paths), report formatting, and slack
// relaxation leaving the logic untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "circuits/synthesis.h"
#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "netlist/netlist.h"
#include "timing/sta.h"

#include "../bench/bench_common.h"

namespace {

using oisa::core::StatusCode;
using oisa::core::StatusError;
using oisa::netlist::Gate;
using oisa::netlist::GateId;
using oisa::timing::CellLibrary;

TEST(MiscIntegrationTest, CsvFileRoundTrip) {
  oisa::experiments::Table table({"k", "v"});
  table.addRow({"a", "1"});
  table.addRow({"b", "2"});
  const std::string path = "/tmp/oisa_csv_test.csv";
  table.writeCsvFile(path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "k,v\na,1\nb,2\n");
  std::remove(path.c_str());
}

TEST(MiscIntegrationTest, CsvWriteErrorsAreIoErrorsNamingThePath) {
  oisa::experiments::Table table({"k", "v"});
  table.addRow({"a", "1"});
  // A missing directory fails at open; /dev/full accepts the open and
  // fails when the buffered bytes are flushed.
  for (const std::string path : {"/nonexistent-dir/x.csv", "/dev/full"}) {
    try {
      table.writeCsvFile(path);
      FAIL() << "writing " << path << " succeeded";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::IoError) << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

TEST(MiscIntegrationTest, BenchJsonWriteErrorFailsTheBench) {
  oisa::bench::BenchJson json("write_error");
  for (const std::string path : {"/nonexistent-dir/x.json", "/dev/full"}) {
    const oisa::core::Status status = json.writeFile(path);
    EXPECT_EQ(status.code(), StatusCode::IoError);
    EXPECT_NE(status.message().find(path), std::string::npos)
        << status.toString();
    const std::string flag = "--json=" + path;
    const char* argv[] = {"micro", flag.c_str()};
    const oisa::experiments::ArgParser args(2, argv);
    EXPECT_EQ(oisa::bench::finishSpeedupBench(json, args, 10.0, 1.0),
              EXIT_FAILURE);
  }
  const oisa::experiments::ArgParser none(0, nullptr);
  EXPECT_EQ(oisa::bench::finishSpeedupBench(json, none, 10.0, 1.0),
            EXIT_SUCCESS);
}

TEST(MiscIntegrationTest, CriticalPathReportNamesEndpointStages) {
  const auto design = synthesize(oisa::core::makeExact(32),
                                 CellLibrary::generic65(),
                                 oisa::circuits::SynthesisOptions{});
  const auto sta =
      analyze(design.netlist, design.delays, 0.3);
  const std::string report = formatCriticalPath(design.netlist, sta);
  EXPECT_NE(report.find("critical path ("), std::string::npos);
  EXPECT_NE(report.find("stages"), std::string::npos);
  // The deepest stage count of a 32-bit prefix adder is > 5.
  EXPECT_GT(sta.criticalPath.size(), 5u);
}

TEST(MiscIntegrationTest, RelaxedDesignKeepsFunctionalEquivalence) {
  // Slack relaxation changes delays only, never logic: relaxSlack takes
  // the netlist by const&, so the relaxed design is the plain one gate
  // for gate.
  oisa::circuits::SynthesisOptions plain;
  oisa::circuits::SynthesisOptions relaxed;
  relaxed.relaxSlack = true;
  const auto a = synthesize(oisa::core::makeIsa(16, 2, 0, 4),
                            CellLibrary::generic65(), plain);
  const auto b = synthesize(oisa::core::makeIsa(16, 2, 0, 4),
                            CellLibrary::generic65(), relaxed);
  ASSERT_EQ(b.netlist.netCount(), a.netlist.netCount());
  ASSERT_EQ(b.netlist.gateCount(), a.netlist.gateCount());
  EXPECT_TRUE(std::ranges::equal(b.netlist.primaryInputs(),
                                 a.netlist.primaryInputs()));
  EXPECT_TRUE(std::ranges::equal(b.netlist.primaryOutputs(),
                                 a.netlist.primaryOutputs()));
  for (std::uint32_t g = 0; g < a.netlist.gateCount(); ++g) {
    const Gate& x = a.netlist.gateAt(GateId{g});
    const Gate& y = b.netlist.gateAt(GateId{g});
    EXPECT_EQ(y.kind, x.kind) << "gate " << g;
    EXPECT_TRUE(std::ranges::equal(y.inputs(), x.inputs())) << "gate " << g;
    EXPECT_TRUE(y.out == x.out) << "gate " << g;
  }
  // But the relaxed one is slower (slack consumed).
  EXPECT_GT(b.criticalDelayNs, a.criticalDelayNs - 1e-12);
}

}  // namespace
