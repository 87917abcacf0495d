// Cross-module integration odds and ends: CSV and bench-JSON file output
// (including the write-error paths), report formatting, the micro benches'
// pair-timing harness, and slack relaxation leaving the logic untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "netlist/netlist.h"

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
    const char* argv[] = {"micro", flag.c_str(), "--min-speedup=1"};
    const oisa::experiments::ArgParser args(3, argv);
    EXPECT_EQ(oisa::bench::finishSpeedupBench(
                  json, oisa::bench::gateOptions(args), 10.0, 1),
              EXIT_FAILURE);
  }
  const oisa::experiments::ArgParser none(0, nullptr);
  oisa::bench::GateOptions gate = oisa::bench::gateOptions(none);
  gate.minSpeedup = 1.0;
  EXPECT_EQ(oisa::bench::finishSpeedupBench(json, gate, 10.0, 1),
            EXIT_SUCCESS);
  EXPECT_EQ(oisa::bench::finishSpeedupBench(json, gate, 0.5, 1), EXIT_FAILURE);
}

TEST(BenchHarnessTest, PairsAlternateWhichSideRunsFirst) {
  // Pair i runs the reference first when i is even and the contender
  // first when i is odd, with the untimed prepare hook before every run.
  std::string log;
  const oisa::bench::PairTiming timing = oisa::bench::timePairs(
      5, [&] { log += 'R'; }, [&] { log += 'C'; },
      [&](bool contenderNext) { log += contenderNext ? 'c' : 'r'; });
  EXPECT_EQ(log, "rRcC" "cCrR" "rRcC" "cCrR" "rRcC");
  EXPECT_EQ(timing.referenceSecs.size(), 5u);
  EXPECT_EQ(timing.contenderSecs.size(), 5u);
}

TEST(BenchHarnessTest, SpeedupIsTheMedianOfThePairRatios) {
  // Ratios 4, 1 and 3: the gate reads their median, 3, not the ratio of
  // the medians (4 / 1) nor of the totals (14 / 5).
  const oisa::bench::PairTiming odd =
      oisa::bench::summarizePairs({4.0, 1.0, 9.0}, {1.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(odd.speedup, 3.0);
  EXPECT_DOUBLE_EQ(odd.referenceSec, 4.0);
  EXPECT_DOUBLE_EQ(odd.contenderSec, 1.0);
  EXPECT_EQ(odd.referenceSecs, (std::vector<double>{4.0, 1.0, 9.0}));
  // An even count takes the mean of the middle two ratios (2 and 4); a
  // contender that took no measurable time has ratio 0.
  const oisa::bench::PairTiming even = oisa::bench::summarizePairs(
      {2.0, 8.0, 12.0, 5.0}, {1.0, 1.0, 3.0, 0.0});
  EXPECT_DOUBLE_EQ(even.speedup, 3.0);
  EXPECT_DOUBLE_EQ(oisa::bench::median({}), 0.0);
}

TEST(MiscIntegrationTest, RobustnessFlagsRejectValuesTheyWouldIgnore) {
  // A negative deadline would read as "no deadline", and 2^32 would wrap
  // through a cast to unsigned into 0: one attempt for --retries, every
  // core for --threads. Each is InvalidInput naming the flag instead.
  for (const std::string flag :
       {"--deadline=-1", "--retries=4294967296", "--threads=4294967296"}) {
    const char* argv[] = {"fig", flag.c_str()};
    const oisa::experiments::ArgParser args(2, argv);
    oisa::experiments::RunOptions run;
    try {
      oisa::bench::applyRobustnessOptions(args, run);
      run.threads = oisa::bench::threadsOption(args);
      FAIL() << flag << " was accepted";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::InvalidInput) << e.what();
      const std::string name = flag.substr(0, flag.find('='));
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  // The largest values that fit still pass through unchanged.
  const char* argv[] = {"fig", "--deadline=0", "--retries=4294967295",
                        "--threads=4294967295"};
  const oisa::experiments::ArgParser args(4, argv);
  oisa::experiments::RunOptions run;
  oisa::bench::applyRobustnessOptions(args, run);
  EXPECT_EQ(run.deadlineSeconds, 0.0);
  EXPECT_EQ(run.cellAttempts, 4294967295u);
  EXPECT_EQ(oisa::bench::threadsOption(args), 4294967295u);
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
