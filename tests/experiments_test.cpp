// Experiments harness tests: workloads, CLI, reporting, and small-scale
// runs of the figure pipelines.
#include <gtest/gtest.h>

#include <sstream>

#include "core/isa_adder.h"
#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/trace_collector.h"
#include "experiments/workload.h"

namespace {

using oisa::circuits::SynthesisOptions;
using oisa::circuits::synthesize;
using oisa::experiments::ArgParser;
using oisa::experiments::overclockedPeriodNs;
using oisa::experiments::RunOptions;
using oisa::experiments::Stimulus;
using oisa::experiments::Table;
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

TEST(CliTest, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--cycles=1000", "--relax",
                        "--workload=uniform", "--cpr=12.5"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.getU64("cycles", 1), 1000u);
  EXPECT_TRUE(args.getBool("relax", false));
  EXPECT_EQ(args.getString("workload", "x"), "uniform");
  EXPECT_DOUBLE_EQ(args.getDouble("cpr", 0.0), 12.5);
  EXPECT_EQ(args.getU64("missing", 7), 7u);
  EXPECT_FALSE(args.has("missing"));
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
  // Negative and hex spellings are rejected for unsigned flags instead
  // of wrapping.
  const char* argv2[] = {"prog", "--cycles=-5", "--seed=0x10"};
  const ArgParser args2(3, argv2);
  EXPECT_THROW((void)args2.getU64("cycles", 0), oisa::core::StatusError);
  EXPECT_THROW((void)args2.getU64("seed", 0), oisa::core::StatusError);
}

TEST(CliTest, PositiveU64RejectsZeroByName) {
  // --checkpoint-every=0 would disable autosaving while claiming to
  // checkpoint, and --shards=0 has no meaning: both are rejected up
  // front with a diagnostic naming the flag.
  const char* argv[] = {"prog", "--checkpoint-every=0", "--shards=4"};
  const ArgParser args(3, argv);
  try {
    (void)args.getPositiveU64("checkpoint-every", 8);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--checkpoint-every"),
              std::string::npos);
  }
  // Positive values and absent-flag fallbacks pass through unchanged.
  EXPECT_EQ(args.getPositiveU64("shards", 1), 4u);
  EXPECT_EQ(args.getPositiveU64("missing", 7), 7u);
}

TEST(CliTest, PositiveU64KeepsTheUnsignedDiagnostics) {
  // Negative spellings hit getU64's unsigned rejection first, so
  // --retries=-1 and --shards=-2 fail with the same named diagnostic
  // shape as every other unsigned flag.
  const char* argv[] = {"prog", "--retries=-1", "--shards=banana"};
  const ArgParser args(3, argv);
  try {
    (void)args.getU64("retries", 1);
    FAIL() << "expected StatusError";
  } catch (const oisa::core::StatusError& e) {
    EXPECT_EQ(e.status().code(), oisa::core::StatusCode::InvalidInput);
    EXPECT_NE(e.status().message().find("--retries"), std::string::npos);
    EXPECT_NE(e.status().message().find("-1"), std::string::npos);
  }
  EXPECT_THROW((void)args.getPositiveU64("shards", 1),
               oisa::core::StatusError);
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
  const auto trace =
      oisa::experiments::collectTrace(design, 10.0, workload, 100);
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

}  // namespace
