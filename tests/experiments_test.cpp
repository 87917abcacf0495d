// Experiments harness tests: workloads, CLI, reporting, and small-scale
// runs of the figure pipelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/isa_adder.h"
#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/grid_scheduler.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"
#include "netlist/bitops.h"

namespace {

using oisa::circuits::SynthesisOptions;
using oisa::circuits::synthesize;
using oisa::experiments::ArgParser;
using oisa::experiments::overclockedPeriodNs;
using oisa::experiments::parseFiniteDouble;
using oisa::experiments::RunOptions;
using oisa::experiments::Stimulus;
using oisa::experiments::Table;
using oisa::experiments::TraceCollector;
using oisa::experiments::UniformWorkload;

TEST(WorkloadTest, UniformIsSeededAndBounded) {
  UniformWorkload w1(16, 5), w2(16, 5), w3(16, 6);
  bool anyDiffer = false;
  for (int i = 0; i < 100; ++i) {
    const Stimulus a = w1.next();
    const Stimulus b = w2.next();
    const Stimulus c = w3.next();
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_LT(a.a, 1u << 16);
    EXPECT_LT(a.b, 1u << 16);
    if (a.a != c.a) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer);
}

TEST(WorkloadTest, RandomWalkTakesBoundedSteps) {
  oisa::experiments::RandomWalkWorkload walk(32, 8, 9);
  Stimulus prev = walk.next();
  for (int i = 0; i < 200; ++i) {
    const Stimulus cur = walk.next();
    const auto diff = static_cast<std::int64_t>(
        (cur.a - prev.a) & 0xffffffffull);
    const std::int64_t step = diff < (1ll << 31) ? diff : diff - (1ll << 32);
    EXPECT_LE(std::abs(step), 256);
    prev = cur;
  }
}

TEST(WorkloadTest, SparseToggleHasLowActivity) {
  oisa::experiments::SparseToggleWorkload sparse(32, 0.05, 11);
  Stimulus prev = sparse.next();
  std::uint64_t toggles = 0;
  const int cycles = 500;
  for (int i = 0; i < cycles; ++i) {
    const Stimulus cur = sparse.next();
    toggles += std::popcount(cur.a ^ prev.a) + std::popcount(cur.b ^ prev.b);
    prev = cur;
  }
  // Expected toggles ~ 0.05 * 64 = 3.2 per cycle; allow generous slack.
  EXPECT_LT(static_cast<double>(toggles) / cycles, 8.0);
  EXPECT_GT(toggles, 0u);
}

TEST(WorkloadTest, FactoryKnowsAllKindsAndRejectsOthers) {
  for (const char* kind : {"uniform", "random-walk", "sparse-toggle"}) {
    const auto w = oisa::experiments::makeWorkload(kind, 32, 1);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), kind);
  }
  EXPECT_THROW((void)oisa::experiments::makeWorkload("nope", 32, 1),
               std::invalid_argument);
}

TEST(WorkloadTest, FillDrawsTheSequenceNextReturns) {
  for (const char* kind : {"uniform", "random-walk", "sparse-toggle"}) {
    SCOPED_TRACE(kind);
    const auto filled = oisa::experiments::makeWorkload(kind, 32, 23);
    const auto stepped = oisa::experiments::makeWorkload(kind, 32, 23);
    for (const std::size_t size :
         std::array<std::size_t, 5>{0, 1, 63, 64, 1000}) {
      std::vector<Stimulus> batch(size);
      filled->fill(batch);
      for (const Stimulus& got : batch) {
        const Stimulus want = stepped->next();
        ASSERT_EQ(got.a, want.a);
        ASSERT_EQ(got.b, want.b);
        ASSERT_EQ(got.carryIn, want.carryIn);
      }
      // A next() between batches must resume where fill() stopped.
      const Stimulus got = filled->next();
      const Stimulus want = stepped->next();
      ASSERT_EQ(got.a, want.a);
      ASSERT_EQ(got.b, want.b);
    }
  }
}

/// packStimulusBlock as it packed before a and b shared one transpose:
/// one 64 x 64 transpose per operand.
std::vector<std::uint64_t> packTwoTransposes(std::span<const Stimulus> stims,
                                             int width) {
  std::array<std::uint64_t, 64> aM{};
  std::array<std::uint64_t, 64> bM{};
  std::uint64_t cinWord = 0;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    const Stimulus& s = stims[lane < stims.size() ? lane : 0];
    aM[lane] = s.a;
    bM[lane] = s.b;
    if (lane < stims.size() && s.carryIn) cinWord |= std::uint64_t{1} << lane;
  }
  oisa::netlist::transpose64(aM);
  oisa::netlist::transpose64(bM);
  const auto w = static_cast<std::size_t>(width);
  std::vector<std::uint64_t> words(2 * w + 1);
  for (std::size_t i = 0; i < w; ++i) {
    words[i] = aM[i];
    words[w + i] = bM[i];
  }
  words[2 * w] = cinWord;
  return words;
}

TEST(WorkloadTest, PackStimulusBlockMatchesTheTwoTransposePacking) {
  std::mt19937_64 rng(31);
  for (const int width : {1, 8, 31, 32, 33, 63, 64}) {
    for (std::size_t count = 1; count <= 64; ++count) {
      // Full 64-bit operands set bits above the width; carry-in is set
      // in some lanes.
      std::vector<Stimulus> stims(count);
      for (Stimulus& s : stims) s = Stimulus{rng(), rng(), (rng() & 1) != 0};
      std::vector<std::uint64_t> words(2 * static_cast<std::size_t>(width) + 1);
      oisa::experiments::packStimulusBlock(stims, width, words);
      ASSERT_EQ(words, packTwoTransposes(stims, width))
          << "width " << width << ", " << count << " stimuli";
    }
  }
}

TEST(WorkloadTest, PackStimuliMatchesPerBlockPackingPlusScatter) {
  std::mt19937_64 rng(37);
  constexpr std::uint64_t kUntouched = 0x5a5a5a5a5a5a5a5aull;
  for (const int width : {8, 32, 33, 64}) {
    const auto ports = 2 * static_cast<std::size_t>(width) + 1;
    for (const std::size_t count : {1, 63, 64, 65, 511, 512}) {
      std::vector<Stimulus> stims(count);
      for (Stimulus& s : stims) s = Stimulus{rng(), rng(), (rng() & 1) != 0};
      const std::size_t blocks = (count + 63) / 64;
      for (const std::size_t stride : {1, 8, 9}) {
        std::vector<std::uint64_t> words(ports * stride, kUntouched);
        if (blocks > stride) {
          EXPECT_THROW(oisa::experiments::packStimuli(stims, width, words,
                                                      stride),
                       std::invalid_argument)
              << count << " stimuli, stride " << stride;
          continue;
        }
        oisa::experiments::packStimuli(stims, width, words, stride);
        std::vector<std::uint64_t> want(ports * stride, kUntouched);
        std::vector<std::uint64_t> block(ports);
        for (std::size_t j = 0; j < blocks; ++j) {
          const auto sub = std::span<const Stimulus>(stims).subspan(
              64 * j, std::min<std::size_t>(64, count - 64 * j));
          oisa::experiments::packStimulusBlock(sub, width, block);
          for (std::size_t i = 0; i < ports; ++i) {
            want[i * stride + j] = block[i];
          }
        }
        ASSERT_EQ(words, want) << "width " << width << ", " << count
                               << " stimuli, stride " << stride;
        // The carry-in word holds the set carry-ins, and a partial last
        // sub-block's spare lanes replicate its first stimulus.
        const std::size_t last = blocks - 1;
        const std::size_t used = count - 64 * last;
        std::uint64_t cin = 0;
        for (std::size_t l = 0; l < used; ++l) {
          if (stims[64 * last + l].carryIn) cin |= std::uint64_t{1} << l;
        }
        ASSERT_EQ(words[(ports - 1) * stride + last], cin);
        for (std::size_t i = 0; i + 1 < ports; ++i) {
          const std::uint64_t word = words[i * stride + last];
          for (std::size_t l = used; l < 64; ++l) {
            ASSERT_EQ((word >> l) & 1u, word & 1u)
                << "input " << i << " spare lane " << l;
          }
        }
      }
    }
  }
}

TEST(WorkloadTest, PackStimuliRejectsSizesOffThePortConvention) {
  std::vector<Stimulus> stims(3);
  std::vector<std::uint64_t> words(2 * 8 + 1);
  EXPECT_THROW(oisa::experiments::packStimuli(stims, 8, words, 2),
               std::invalid_argument);
  std::vector<std::uint64_t> wide(2 * 65 + 1);
  EXPECT_THROW(oisa::experiments::packStimuli(stims, 65, wide, 1),
               std::invalid_argument);
  // No stimuli pack nothing.
  oisa::experiments::packStimuli({}, 8, words, 1);
  EXPECT_EQ(words, std::vector<std::uint64_t>(2 * 8 + 1, 0));
}

TEST(CliTest, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--cycles=1000", "--relax",
                        "--workload=uniform", "--cpr=12.5"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.getU64("cycles", 1), 1000u);
  EXPECT_TRUE(args.getBool("relax", false));
  EXPECT_EQ(args.getString("workload", "x"), "uniform");
  EXPECT_DOUBLE_EQ(args.getDouble("cpr", 0.0), 12.5);
  EXPECT_EQ(args.getU64("missing", 7), 7u);
}

TEST(CliTest, RejectUnreadNamesEveryFlagNoGetterRead) {
  // A misspelled gate flag is never read, so it would leave the gate off:
  // rejectUnread fails the run naming it instead.
  const char* typo[] = {"prog", "--min-speedpu=100", "--json=x.json",
                        "--help"};
  const ArgParser args(4, typo);
  (void)args.getDouble("min-speedup", 0.0);  // absent: the typo is not it
  (void)args.getString("json", "");
  try {
    args.rejectUnread();
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    const std::string& message = e.status().message();
    EXPECT_NE(message.find("--min-speedpu"), std::string::npos) << message;
    EXPECT_NE(message.find("--help"), std::string::npos) << message;
    EXPECT_EQ(message.find("--json"), std::string::npos) << message;
  }
  // Read flags and absent ones pass, whichever getter read them.
  const char* good[] = {"prog", "--cycles=5", "--relax", "--cpr=1.5",
                        "--csv=out.csv"};
  const ArgParser read(5, good);
  (void)read.getBounded<std::uint64_t>("cycles", 1, 1);
  (void)read.getBool("relax", false);
  (void)read.getDouble("cpr", 0.0);
  (void)read.getString("csv", "");
  (void)read.getU64("seed", 42);
  EXPECT_NO_THROW(read.rejectUnread());
  EXPECT_NO_THROW(ArgParser(0, nullptr).rejectUnread());
  // A bad value still fails at its getter, naming its flag.
  const char* bad[] = {"prog", "--min-speedup=fast"};
  const ArgParser badArgs(2, bad);
  try {
    (void)badArgs.getDouble("min-speedup", 0.0);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--min-speedup"), std::string::npos);
  }
}

TEST(CliTest, GetterAfterRejectUnreadThrowsLogicErrorNamingTheFlag) {
  // A flag read after the check could never be passed: the check had
  // already refused it as unrecognized. Every getter therefore throws once
  // the check has run, whether or not the flag was given, so a misplaced
  // read fails on every run.
  const char* argv[] = {"prog", "--cycles=5"};
  const ArgParser args(2, argv);
  (void)args.getU64("cycles", 1);
  args.rejectUnread();
  const auto expectLogicError = [](const std::function<void()>& read,
                                   const std::string& flag) {
    try {
      read();
      ADD_FAILURE() << "a read of " << flag << " after rejectUnread passed";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  expectLogicError([&] { (void)args.getU64("threads", 0); }, "--threads");
  expectLogicError([&] { (void)args.getU64("cycles", 1); }, "--cycles");
  expectLogicError([&] { (void)args.getBounded<int>("every", 8); }, "--every");
  expectLogicError([&] { (void)args.getDouble("cpr", 0.0); }, "--cpr");
  expectLogicError([&] { (void)args.getString("csv", ""); }, "--csv");
  expectLogicError([&] { (void)args.getBool("relax", true); }, "--relax");
}

TEST(CliTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(ArgParser(2, argv), oisa::core::StatusError);
}

TEST(CliTest, DiagnosesMalformedValues) {
  const char* argv[] = {"prog", "--cycles=banana", "--cpr=1.2.3",
                        "--relax=maybe"};
  const ArgParser args(4, argv);
  // Each conversion failure names the flag, the expected type and the
  // offending text — no bare stoull/stod exceptions.
  try {
    (void)args.getU64("cycles", 0);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--cycles"), std::string::npos);
    EXPECT_NE(e.status().message().find("banana"), std::string::npos);
  }
  EXPECT_THROW((void)args.getDouble("cpr", 0.0), oisa::core::StatusError);
  EXPECT_THROW((void)args.getBool("relax", false), oisa::core::StatusError);
  // strtod parses these, but no flag takes a non-finite value: a NaN
  // would pass every `> 0` gate unchecked.
  const char* argv3[] = {"prog", "--min-speedup=nan", "--deadline=inf",
                         "--margin=-inf"};
  const ArgParser args3(4, argv3);
  for (const char* key : {"min-speedup", "deadline", "margin"}) {
    try {
      (void)args3.getDouble(key, 1.0);
      FAIL() << "expected StatusError for --" << key;
    } catch (const oisa::core::StatusError& e) {
      EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
      EXPECT_NE(e.status().message().find(std::string("--") + key),
                std::string::npos);
    }
  }
  // The items of a list flag (adaptive_overclocking --budgets) follow the
  // same rule, and a bad one names the flag.
  EXPECT_DOUBLE_EQ(parseFiniteDouble("budgets", "0.05"), 0.05);
  for (const char* item : {"abc", "nan", "1e-3x", ""}) {
    try {
      (void)parseFiniteDouble("budgets", item);
      FAIL() << "expected StatusError for '" << item << "'";
    } catch (const oisa::core::StatusError& e) {
      EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
      EXPECT_NE(e.status().message().find("--budgets"), std::string::npos);
    }
  }
  // Negative and hex spellings are rejected for unsigned flags instead
  // of wrapping.
  const char* argv2[] = {"prog", "--cycles=-5", "--seed=0x10"};
  const ArgParser args2(3, argv2);
  EXPECT_THROW((void)args2.getU64("cycles", 0), oisa::core::StatusError);
  EXPECT_THROW((void)args2.getU64("seed", 0), oisa::core::StatusError);
}

TEST(CliTest, PositiveU64RejectsZeroByName) {
  // --checkpoint-every=0 would disable autosaving while claiming to
  // checkpoint, and --trace-buffer=0 would be a span buffer that holds
  // nothing: both read with min = 1, so zero is rejected up front with a
  // diagnostic naming the flag.
  const char* argv[] = {"prog", "--checkpoint-every=0", "--trace-buffer=4"};
  const ArgParser args(3, argv);
  try {
    (void)args.getBounded<std::uint64_t>("checkpoint-every", 8, 1);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--checkpoint-every"),
              std::string::npos);
  }
  // Positive values and absent-flag fallbacks pass through unchanged.
  EXPECT_EQ(args.getBounded<std::size_t>("trace-buffer", 1, 1), 4u);
  EXPECT_EQ(args.getBounded<std::uint64_t>("missing", 7, 1), 7u);
}

TEST(CliTest, PositiveU64KeepsTheUnsignedDiagnostics) {
  // Negative spellings hit getU64's unsigned rejection first, so
  // --retries=-1 and --trace-buffer=banana fail with the same named
  // diagnostic shape as every other unsigned flag.
  const char* argv[] = {"prog", "--retries=-1", "--trace-buffer=banana"};
  const ArgParser args(3, argv);
  try {
    (void)args.getU64("retries", 1);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--retries"), std::string::npos);
    EXPECT_NE(e.status().message().find("-1"), std::string::npos);
  }
  EXPECT_THROW((void)args.getBounded<std::size_t>("trace-buffer", 1, 1),
               oisa::core::StatusError);
}

TEST(CliTest, BoundedRejectsWhatACastWouldWrap) {
  // 2^32 + 8 read through static_cast<int> is 8: --block=4294967304 used
  // to run the block-8 design. Out-of-range values now fail by name.
  const char* argv[] = {"prog", "--block=4294967304", "--hold=0", "--red=7",
                        "--threads=4294967296"};
  const ArgParser args(5, argv);
  const std::pair<const char*, std::function<void()>> rejected[] = {
      {"block", [&] { (void)args.getBounded<int>("block", 1); }},
      {"hold", [&] { (void)args.getBounded<int>("hold", 1, 1); }},
      {"threads", [&] { (void)args.getBounded<unsigned>("threads", 0); }}};
  for (const auto& [key, read] : rejected) {
    try {
      read();
      ADD_FAILURE() << "--" << key << " was accepted";
    } catch (const oisa::core::StatusError& e) {
      EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput) << e.what();
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(args.getBounded<int>("red", 4), 7);
  EXPECT_EQ(args.getBounded<int>("missing", 4), 4);
}

TEST(CliTest, RunGuardedTurnsEveryFailureIntoExitFailure) {
  // The example mains caught only StatusError, so an IsaConfig
  // std::invalid_argument (overclocking_explorer --block=3) aborted.
  using oisa::core::Status;
  const std::vector<std::pair<std::function<int()>, std::string>> cases = {
      {[]() -> int {
         throw oisa::core::StatusError(Status::invalidInput("bad flag"));
       },
       "bad flag"},
      {[]() -> int {
         throw oisa::experiments::GridError(
             {{2, Status::internal("cell broke"), 3}}, 0);
       },
       "cell 2: Internal: cell broke (after 3 attempts)"},
      {[]() -> int { throw std::invalid_argument("block too small"); },
       "block too small"}};
  for (const auto& [body, expected] : cases) {
    std::ostringstream err;
    std::streambuf* const saved = std::cerr.rdbuf(err.rdbuf());
    const int code = oisa::experiments::runGuarded(body);
    std::cerr.rdbuf(saved);
    EXPECT_EQ(code, EXIT_FAILURE);
    EXPECT_EQ(err.str().rfind("error: ", 0), 0u) << err.str();
    EXPECT_NE(err.str().find(expected), std::string::npos) << err.str();
  }
  EXPECT_EQ(oisa::experiments::runGuarded([] { return 0; }), 0);
}

TEST(ReportTest, TableAlignsAndEmitsCsv) {
  Table table({"design", "value"});
  table.addRow({"(8,0,0,4)", "1.5e-02"});
  table.addRow({"exact", "3.0e+00"});
  std::ostringstream ascii, csv;
  table.print(ascii);
  table.writeCsv(csv);
  EXPECT_NE(ascii.str().find("(8,0,0,4)"), std::string::npos);
  EXPECT_NE(ascii.str().find("design"), std::string::npos);
  EXPECT_EQ(csv.str(),
            "design,value\n(8,0,0,4),1.5e-02\nexact,3.0e+00\n");
  EXPECT_THROW(table.addRow({"too", "many", "cells"}), std::invalid_argument);
}

TEST(ReportTest, FormattersAndFloor) {
  EXPECT_EQ(oisa::experiments::formatFixed(1.23456, 2), "1.23");
  EXPECT_NE(oisa::experiments::formatSci(0.000123, 2).find("e-04"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(oisa::experiments::displayFloor(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(oisa::experiments::displayFloor(0.5), 0.5);
}

TEST(OverclockTest, PeriodsMatchPaperCprs) {
  EXPECT_DOUBLE_EQ(overclockedPeriodNs(0.3, 5.0), 0.285);
  EXPECT_DOUBLE_EQ(overclockedPeriodNs(0.3, 10.0), 0.27);
  EXPECT_DOUBLE_EQ(overclockedPeriodNs(0.3, 15.0), 0.255);
}

TEST(TraceCollectorTest, GoldenFieldsMatchBehavioralModel) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  const auto design =
      synthesize(oisa::core::makeIsa(8, 0, 0, 4), lib, SynthesisOptions{});
  UniformWorkload workload(32, 3);
  TraceCollector collector(design, 10.0);
  const auto trace = collector.collect(workload, 100);
  ASSERT_EQ(trace.size(), 100u);
  const oisa::core::IsaAdder behavioral(design.config);
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.gold, behavioral.add(rec.a, rec.b, rec.carryIn).sum);
    EXPECT_EQ(rec.diamond,
              behavioral.exactAdd(rec.a, rec.b, rec.carryIn).sum);
    // Period far above critical delay: silver == gold.
    EXPECT_EQ(rec.silver, rec.gold);
    EXPECT_EQ(rec.silverCout, rec.goldCout);
  }
}

TEST(RunnerTest, ErrorCombinationRowsAreConsistent) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(
      synthesize(oisa::core::makeIsa(8, 0, 0, 4), lib, SynthesisOptions{}));
  designs.push_back(
      synthesize(oisa::core::makeExact(32), lib, SynthesisOptions{}));

  RunOptions options;
  options.cycles = 400;
  const double cprs[] = {0.0, 15.0};
  const auto rows =
      runErrorCombination(designs, cprs, options);
  ASSERT_EQ(rows.size(), 4u);

  for (const auto& row : rows) {
    EXPECT_EQ(row.cycles, 400u);
    EXPECT_GE(row.rmsRelJoint, 0.0);
    if (row.cprPercent == 0.0) {
      // No overclocking: no timing errors at the sign-off period.
      EXPECT_EQ(row.timingErrorRate, 0.0) << row.design;
    }
  }
  // The exact adder has zero structural error at any clock.
  for (const auto& row : rows) {
    if (row.design == "exact") {
      EXPECT_EQ(row.rmsRelStruct, 0.0);
      EXPECT_EQ(row.structErrorRate, 0.0);
    } else {
      EXPECT_GT(row.rmsRelStruct, 0.0);
    }
  }
}

TEST(RunnerTest, ThreadCountDoesNotChangeResults) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(
      synthesize(oisa::core::makeIsa(8, 0, 0, 4), lib, SynthesisOptions{}));
  designs.push_back(
      synthesize(oisa::core::makeIsa(16, 1, 0, 2), lib, SynthesisOptions{}));

  RunOptions serial;
  serial.cycles = 300;
  serial.threads = 1;
  RunOptions parallel = serial;
  parallel.threads = 4;
  const double cprs[] = {5.0, 15.0};
  const auto a = runErrorCombination(designs, cprs, serial);
  const auto b = runErrorCombination(designs, cprs, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].design, b[i].design);
    EXPECT_DOUBLE_EQ(a[i].rmsRelJoint, b[i].rmsRelJoint);
    EXPECT_DOUBLE_EQ(a[i].rmsRelTiming, b[i].rmsRelTiming);
    EXPECT_EQ(a[i].cycles, b[i].cycles);
  }
}

TEST(RunnerTest, BitDistributionSeparatesStructuralAndTiming) {
  const auto lib = oisa::timing::CellLibrary::generic65();
  const auto design =
      synthesize(oisa::core::makeIsa(8, 0, 0, 4), lib, SynthesisOptions{});
  RunOptions options;
  options.cycles = 500;
  const auto dist = runBitDistribution(design, 0.0, options);
  ASSERT_EQ(dist.structuralRate.size(), 33u);
  ASSERT_EQ(dist.timingRate.size(), 33u);
  // At the sign-off clock there are no timing errors at all.
  for (const double rate : dist.timingRate) EXPECT_EQ(rate, 0.0);
  // (8,0,0,4) pushes structural errors into the balanced top-4 bits of the
  // first three blocks: positions 4..7, 12..15, 20..23.
  double balancedBand = 0.0;
  for (const int pos : {4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23}) {
    balancedBand += dist.structuralRate[static_cast<std::size_t>(pos)];
  }
  EXPECT_GT(balancedBand, 0.0);
  // The first path never errs structurally (true carry-in, no balancing).
  for (const int pos : {0, 1, 2, 3}) {
    EXPECT_EQ(dist.structuralRate[static_cast<std::size_t>(pos)], 0.0);
  }
}

/// Expects `call` to throw StatusError(InvalidInput) naming `option` up
/// front: a failure inside a cell would surface as GridError instead.
template <class Fn>
void expectRejectedUpFront(Fn&& call, const std::string& option) {
  try {
    call();
    ADD_FAILURE() << option << " was accepted";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.code(), oisa::core::StatusCode::InvalidInput) << e.what();
    EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
        << e.what();
  }
}

TEST(RunnerTest, ErrorCombinationRejectsZeroCycles) {
  const std::vector<oisa::circuits::SynthesizedDesign> designs = {
      synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                 oisa::timing::CellLibrary::generic65(), SynthesisOptions{})};
  const std::vector<double> cprs = {15.0};
  RunOptions options;
  options.cycles = 0;
  expectRejectedUpFront(
      [&] { (void)runErrorCombination(designs, cprs, options); }, "--cycles");
  options.cycles = 1;
  EXPECT_EQ(runErrorCombination(designs, cprs, options).at(0).cycles, 1u);
}

TEST(RunnerTest, BitDistributionRejectsZeroCycles) {
  const auto design =
      synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                 oisa::timing::CellLibrary::generic65(), SynthesisOptions{});
  RunOptions options;
  options.cycles = 0;
  expectRejectedUpFront(
      [&] { (void)runBitDistribution(design, 15.0, options); }, "--cycles");
  options.cycles = 1;
  EXPECT_EQ(runBitDistribution(design, 15.0, options).timingRate.size(), 33u);
}

TEST(RunnerTest, PredictionRejectsTooFewCyclesOrTrees) {
  const std::vector<oisa::circuits::SynthesizedDesign> designs = {
      synthesize(oisa::core::makeIsa(8, 0, 0, 4),
                 oisa::timing::CellLibrary::generic65(), SynthesisOptions{})};
  const std::vector<double> cprs = {15.0};
  oisa::experiments::PredictionOptions options;
  options.run.threads = 1;
  options.trainCycles = 2;
  options.testCycles = 1;
  expectRejectedUpFront(
      [&] { (void)runPredictionEvaluation(designs, cprs, options); },
      "--test-cycles");
  options.testCycles = 2;
  options.trainCycles = 0;
  expectRejectedUpFront(
      [&] { (void)runPredictionEvaluation(designs, cprs, options); },
      "--train-cycles");
  options.trainCycles = 2;
  // Zero trees used to fail inside every cell, as a retried Internal.
  options.predictor.forest.treeCount = 0;
  expectRejectedUpFront(
      [&] { (void)runPredictionEvaluation(designs, cprs, options); },
      "--trees");
  options.predictor.model = oisa::predict::ModelKind::DecisionTree;
  EXPECT_EQ(runPredictionEvaluation(designs, cprs, options).size(), 1u);
  options.predictor.model = oisa::predict::ModelKind::RandomForest;
  options.predictor.forest.treeCount = 1;
  EXPECT_EQ(runPredictionEvaluation(designs, cprs, options).size(), 1u);
  // A loaded bank skips training, so the train count is not checked: the
  // cell runs and fails on the missing bank instead.
  options.trainCycles = 0;
  options.modelIn = ::testing::TempDir() + "no_such_bank";
  EXPECT_THROW((void)runPredictionEvaluation(designs, cprs, options),
               oisa::experiments::GridError);
}

}  // namespace
