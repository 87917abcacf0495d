// Checkpoint subsystem: payload codec exactness, snapshot file
// integrity (any flipped byte or truncation is detected), torn-write
// recovery via fault injection, and interrupted-campaign resume that is
// byte-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/synthesis.h"
#include "core/fault_inject.h"
#include "core/isa_config.h"
#include "core/status.h"
#include "experiments/checkpoint.h"
#include "experiments/grid_scheduler.h"
#include "experiments/runner.h"
#include "timing/cell_library.h"

namespace {

using oisa::core::ScopedFaultPlan;
using oisa::core::StatusCode;
using oisa::experiments::CampaignCheckpoint;
using oisa::experiments::CampaignFingerprint;
using oisa::experiments::CheckpointOptions;
using oisa::experiments::GridCheckpoint;
using oisa::experiments::PayloadReader;
using oisa::experiments::PayloadWriter;

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "oisa_ckpt_" + name;
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- payload codec ----------------------------------------------------

TEST(PayloadCodecTest, RoundTripIsByteExact) {
  PayloadWriter w;
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.str("design (8,0,0,4)");
  w.str("");
  const std::string bytes = w.take();

  PayloadReader r(bytes);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double negZero = r.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));  // bit pattern, not value, survived
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "design (8,0,0,4)");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(PayloadCodecTest, FieldListWritesTheTypedFieldsInOrder) {
  // The row codecs' field lists must write exactly the bytes the typed
  // calls write, or snapshots saved before them would stop resuming.
  const std::string design = "design (8,0,0,4)";
  const double rms = 3.141592653589793;
  const std::uint64_t cycles = 0x0123456789ABCDEFull;
  PayloadWriter typed;
  typed.str(design);
  typed.f64(rms);
  typed.u64(cycles);
  PayloadWriter listed;
  listed(design, rms, cycles);
  const std::string bytes = listed.take();
  EXPECT_EQ(bytes, typed.take());

  std::string designBack;
  double rmsBack = 0.0;
  std::uint64_t cyclesBack = 0;
  PayloadReader r(bytes);
  r(designBack, rmsBack, cyclesBack);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(designBack, design);
  EXPECT_EQ(rmsBack, rms);
  EXPECT_EQ(cyclesBack, cycles);
}

TEST(PayloadCodecTest, TruncatedReadsTripTheStickyError) {
  PayloadWriter w;
  w.u64(42);
  w.str("hello");
  const std::string bytes = w.take();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string truncated = bytes.substr(0, len);
    PayloadReader r(truncated);  // reader borrows; keep the bytes alive
    (void)r.u64();
    (void)r.str();
    EXPECT_FALSE(r.ok() && r.atEnd()) << "length " << len;
  }
}

// --- fingerprint ------------------------------------------------------

TEST(FingerprintTest, SensitiveToEveryMixedField) {
  const auto base = CampaignFingerprint("pipeline").mix("d1").mix(
      std::uint64_t{100});
  EXPECT_NE(base.digest(),
            CampaignFingerprint("pipeline2").mix("d1").mix(std::uint64_t{100})
                .digest());
  EXPECT_NE(base.digest(),
            CampaignFingerprint("pipeline").mix("d2").mix(std::uint64_t{100})
                .digest());
  EXPECT_NE(base.digest(),
            CampaignFingerprint("pipeline").mix("d1").mix(std::uint64_t{101})
                .digest());
  // Same inputs => same digest (it is a pure function).
  EXPECT_EQ(base.digest(),
            CampaignFingerprint("pipeline").mix("d1").mix(std::uint64_t{100})
                .digest());
  // Length-prefixed strings: ("ab","c") and ("a","bc") must differ.
  EXPECT_NE(CampaignFingerprint("p").mix("ab").mix("c").digest(),
            CampaignFingerprint("p").mix("a").mix("bc").digest());
}

// --- snapshot file integrity ------------------------------------------

GridCheckpoint sampleCheckpoint() {
  GridCheckpoint ckpt(/*fingerprint=*/0xFEEDFACEull, /*cellCount=*/6);
  for (std::uint64_t cell : {0ull, 2ull, 5ull}) {
    PayloadWriter w;
    w.u64(cell * 17);
    w.f64(1.5 * static_cast<double>(cell));
    w.str("cell" + std::to_string(cell));
    ckpt.record(cell, w.take());
  }
  return ckpt;
}

TEST(GridCheckpointTest, SaveLoadRoundTrip) {
  const std::string path = tempPath("roundtrip.bin");
  const GridCheckpoint original = sampleCheckpoint();
  ASSERT_TRUE(original.saveTo(path).isOk());
  auto loaded = GridCheckpoint::loadFrom(path);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  EXPECT_EQ(loaded.value().fingerprint(), 0xFEEDFACEull);
  EXPECT_EQ(loaded.value().cellCount(), 6u);
  EXPECT_EQ(loaded.value().completedCells(), 3u);
  for (std::uint64_t cell : {0ull, 2ull, 5ull}) {
    ASSERT_NE(loaded.value().payload(cell), nullptr) << cell;
    EXPECT_EQ(*loaded.value().payload(cell), *original.payload(cell));
  }
  EXPECT_EQ(loaded.value().payload(1), nullptr);
  std::remove(path.c_str());
}

TEST(GridCheckpointTest, FlippingAnyByteIsDetected) {
  const std::string path = tempPath("flip.bin");
  ASSERT_TRUE(sampleCheckpoint().saveTo(path).isOk());
  const std::string good = readFileBytes(path);
  ASSERT_GT(good.size(), 30u);
  const std::string badPath = tempPath("flip_bad.bin");
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    writeFileBytes(badPath, bad);
    const auto result = GridCheckpoint::loadFrom(badPath);
    ASSERT_FALSE(result.isOk()) << "byte " << i << " flip undetected";
    EXPECT_EQ(result.status().code(), StatusCode::Corruption) << "byte " << i;
  }
  std::remove(path.c_str());
  std::remove(badPath.c_str());
}

TEST(GridCheckpointTest, TruncationAtEveryLengthIsDetected) {
  const std::string path = tempPath("trunc.bin");
  ASSERT_TRUE(sampleCheckpoint().saveTo(path).isOk());
  const std::string good = readFileBytes(path);
  const std::string badPath = tempPath("trunc_bad.bin");
  for (std::size_t len = 0; len < good.size(); ++len) {
    writeFileBytes(badPath, good.substr(0, len));
    const auto result = GridCheckpoint::loadFrom(badPath);
    ASSERT_FALSE(result.isOk()) << "truncation at " << len << " undetected";
    EXPECT_EQ(result.status().code(), StatusCode::Corruption) << len;
  }
  std::remove(path.c_str());
  std::remove(badPath.c_str());
}

TEST(GridCheckpointTest, MissingFileIsIoErrorAndReadInjectionIsCorruption) {
  const auto missing = GridCheckpoint::loadFrom(tempPath("nope.bin"));
  ASSERT_FALSE(missing.isOk());
  EXPECT_EQ(missing.status().code(), StatusCode::IoError);

  const std::string path = tempPath("readfault.bin");
  ASSERT_TRUE(sampleCheckpoint().saveTo(path).isOk());
  {
    ScopedFaultPlan plan("checkpoint.read:*");
    const auto result = GridCheckpoint::loadFrom(path);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Corruption);
  }
  std::remove(path.c_str());
}

TEST(GridCheckpointTest, TornWriteInjectionLeavesADetectedCorpse) {
  const std::string path = tempPath("torn.bin");
  {
    // The injection makes saveTo skip the tmp+rename dance and write
    // only half the serialized bytes straight to the final path — the
    // moral equivalent of power loss on a non-atomic filesystem.
    ScopedFaultPlan plan("checkpoint.write:*");
    const auto status = sampleCheckpoint().saveTo(path);
    EXPECT_FALSE(status.isOk());
  }
  const auto result = GridCheckpoint::loadFrom(path);
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), StatusCode::Corruption);
  // A resuming campaign treats that corpse as "start fresh", not a crash.
  CheckpointOptions options;
  options.path = path;
  options.resume = true;
  CampaignCheckpoint campaign(options, /*fingerprint=*/1, /*cellCount=*/4);
  EXPECT_EQ(campaign.resumedCells(), 0u);
  std::remove(path.c_str());
}

// --- campaign adapter --------------------------------------------------

TEST(CampaignCheckpointTest, ResumeAdoptsOnlyMatchingCampaigns) {
  const std::string path = tempPath("campaign.bin");
  CheckpointOptions options;
  options.path = path;
  options.everyCells = 1;
  {
    CampaignCheckpoint campaign(options, /*fingerprint=*/42, /*cellCount=*/3);
    campaign.commit(0, "payload0");
    campaign.commit(2, "payload2");
    ASSERT_TRUE(campaign.finish().isOk());
  }
  // Same fingerprint + shape: adopted.
  CheckpointOptions resume = options;
  resume.resume = true;
  {
    CampaignCheckpoint campaign(resume, 42, 3);
    EXPECT_EQ(campaign.resumedCells(), 2u);
    ASSERT_TRUE(campaign.tryLoad(0).has_value());
    EXPECT_EQ(*campaign.tryLoad(0), "payload0");
    EXPECT_FALSE(campaign.tryLoad(1).has_value());
    EXPECT_EQ(*campaign.tryLoad(2), "payload2");
  }
  // Different fingerprint: ignored (recompute everything).
  {
    CampaignCheckpoint campaign(resume, 43, 3);
    EXPECT_EQ(campaign.resumedCells(), 0u);
  }
  // Different grid shape: ignored.
  {
    CampaignCheckpoint campaign(resume, 42, 4);
    EXPECT_EQ(campaign.resumedCells(), 0u);
  }
  // Without --resume an existing snapshot is not adopted.
  {
    CampaignCheckpoint campaign(options, 42, 3);
    EXPECT_EQ(campaign.resumedCells(), 0u);
  }
  // Missing file with --resume: silent fresh start (crash-restart loops
  // can always pass --resume).
  std::remove(path.c_str());
  {
    CampaignCheckpoint campaign(resume, 42, 3);
    EXPECT_EQ(campaign.resumedCells(), 0u);
  }
}

TEST(CampaignCheckpointTest, DisabledCheckpointIsANoOp) {
  CampaignCheckpoint campaign(CheckpointOptions{}, 1, 8);
  EXPECT_FALSE(campaign.enabled());
  EXPECT_FALSE(campaign.tryLoad(0).has_value());
  campaign.commit(0, "ignored");
  EXPECT_TRUE(campaign.finish().isOk());
}

// --- interrupted-campaign equivalence ---------------------------------

std::vector<oisa::circuits::SynthesizedDesign> smallDesigns() {
  const auto lib = oisa::timing::CellLibrary::generic65();
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  designs.push_back(oisa::circuits::synthesize(
      oisa::core::makeIsa(8, 0, 0, 4), lib, oisa::circuits::SynthesisOptions{}));
  return designs;
}

oisa::experiments::RunOptions fastRun() {
  oisa::experiments::RunOptions options;
  options.cycles = 200;
  options.threads = 2;
  return options;
}

void expectRowsIdentical(
    const std::vector<oisa::experiments::CombinationRow>& a,
    const std::vector<oisa::experiments::CombinationRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].design, b[i].design);
    // Exact ==: resumed rows must be byte-identical, not merely close.
    EXPECT_EQ(a[i].cprPercent, b[i].cprPercent);
    EXPECT_EQ(a[i].periodNs, b[i].periodNs);
    EXPECT_EQ(a[i].rmsRelStruct, b[i].rmsRelStruct);
    EXPECT_EQ(a[i].rmsRelTiming, b[i].rmsRelTiming);
    EXPECT_EQ(a[i].rmsRelJoint, b[i].rmsRelJoint);
    EXPECT_EQ(a[i].meanAbsJointArith, b[i].meanAbsJointArith);
    EXPECT_EQ(a[i].structErrorRate, b[i].structErrorRate);
    EXPECT_EQ(a[i].timingErrorRate, b[i].timingErrorRate);
    EXPECT_EQ(a[i].cycles, b[i].cycles);
  }
}

TEST(ResumeEquivalenceTest, InterruptedCampaignResumesByteIdentical) {
  const auto designs = smallDesigns();
  const std::vector<double> cprs = {5.0, 10.0, 15.0};
  const std::string path = tempPath("resume_equiv.bin");
  std::remove(path.c_str());

  // Reference: uninterrupted run, no checkpointing involved.
  const auto reference =
      oisa::experiments::runErrorCombination(designs, cprs, fastRun());

  // Interrupted run: the first computed cell survives (checkpoint every
  // cell), then every later cell dies — the in-process stand-in for a
  // SIGKILL mid-campaign. finish() persists partial results on the
  // error path.
  auto interrupted = fastRun();
  interrupted.threads = 1;  // deterministic which-cell-fails mapping
  interrupted.checkpoint.path = path;
  interrupted.checkpoint.everyCells = 1;
  {
    ScopedFaultPlan plan("grid.cell:2+");
    EXPECT_THROW(
        (void)oisa::experiments::runErrorCombination(designs, cprs,
                                                     interrupted),
        oisa::experiments::GridError);
  }
  {
    const auto snapshot = GridCheckpoint::loadFrom(path);
    ASSERT_TRUE(snapshot.isOk()) << snapshot.status().toString();
    EXPECT_EQ(snapshot.value().completedCells(), 1u);
  }

  // Resume: recomputes only the missing cells; the full grid must be
  // byte-identical to the uninterrupted reference (threads may differ).
  auto resumed = fastRun();
  resumed.checkpoint.path = path;
  resumed.checkpoint.resume = true;
  const auto rows =
      oisa::experiments::runErrorCombination(designs, cprs, resumed);
  expectRowsIdentical(rows, reference);
  std::remove(path.c_str());
}

TEST(ResumeEquivalenceTest, DeadlineCutCampaignKeepsItsCellsAndResumes) {
  const auto designs = smallDesigns();
  const std::vector<double> cprs = {5.0, 10.0, 15.0};
  const std::string path = tempPath("resume_deadline.bin");
  std::remove(path.c_str());

  // Reference: uninterrupted, on one worker, timed to size the deadline.
  auto run = fastRun();
  run.cycles = 200000;
  run.threads = 1;
  const auto start = std::chrono::steady_clock::now();
  const auto reference =
      oisa::experiments::runErrorCombination(designs, cprs, run);
  const double cellSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      static_cast<double>(cprs.size());

  // Three-quarters of a cell: the one worker claims cell 0 at once, and
  // the deadline passes before it could claim cell 2. The sparse autosave
  // (every 8 cells) never fires, so the snapshot is the error path's.
  auto interrupted = run;
  interrupted.checkpoint.path = path;
  interrupted.deadlineSeconds = 0.75 * cellSeconds;
  std::size_t notRun = 0;
  try {
    (void)oisa::experiments::runErrorCombination(designs, cprs, interrupted);
    FAIL() << "expected the deadline to cut the campaign short";
  } catch (const oisa::experiments::GridError& e) {
    EXPECT_TRUE(e.cancelled());
    EXPECT_TRUE(e.failures().empty());
    notRun = e.cellsNotRun();
  }
  ASSERT_GE(notRun, 1u);
  ASSERT_LT(notRun, cprs.size());
  {
    const auto snapshot = GridCheckpoint::loadFrom(path);
    ASSERT_TRUE(snapshot.isOk()) << snapshot.status().toString();
    EXPECT_EQ(snapshot.value().completedCells(), cprs.size() - notRun);
  }

  // Resume recomputes only the unclaimed cells, at any thread count.
  auto resumed = run;
  resumed.threads = 2;
  resumed.checkpoint.path = path;
  resumed.checkpoint.resume = true;
  const auto rows =
      oisa::experiments::runErrorCombination(designs, cprs, resumed);
  expectRowsIdentical(rows, reference);
  std::remove(path.c_str());
}

TEST(ResumeEquivalenceTest, ResumeFromCompleteRecomputesNothing) {
  const auto designs = smallDesigns();
  const std::vector<double> cprs = {5.0, 10.0};
  const std::string path = tempPath("resume_complete.bin");
  std::remove(path.c_str());

  auto checkpointed = fastRun();
  checkpointed.checkpoint.path = path;
  const auto reference =
      oisa::experiments::runErrorCombination(designs, cprs, checkpointed);

  // grid.cell:* makes ANY recomputation fail, so success here proves
  // every cell was served from the snapshot.
  auto resumed = fastRun();
  resumed.checkpoint.path = path;
  resumed.checkpoint.resume = true;
  ScopedFaultPlan plan("grid.cell:*");
  const auto rows =
      oisa::experiments::runErrorCombination(designs, cprs, resumed);
  expectRowsIdentical(rows, reference);
  std::remove(path.c_str());
}

TEST(ResumeEquivalenceTest, CheckpointEveryCellMatchesSparseAutosave) {
  const auto designs = smallDesigns();
  const std::vector<double> cprs = {5.0, 10.0, 15.0};
  const std::string pathA = tempPath("every1.bin");
  const std::string pathB = tempPath("every8.bin");
  std::remove(pathA.c_str());
  std::remove(pathB.c_str());

  auto everyCell = fastRun();
  everyCell.checkpoint.path = pathA;
  everyCell.checkpoint.everyCells = 1;
  auto sparse = fastRun();
  sparse.checkpoint.path = pathB;
  sparse.checkpoint.everyCells = 8;
  const auto rowsA =
      oisa::experiments::runErrorCombination(designs, cprs, everyCell);
  const auto rowsB =
      oisa::experiments::runErrorCombination(designs, cprs, sparse);
  expectRowsIdentical(rowsA, rowsB);

  // Both snapshots hold the complete campaign after finish(), and the
  // files are bit-identical (ordered cell map, deterministic payloads).
  EXPECT_EQ(readFileBytes(pathA), readFileBytes(pathB));
  std::remove(pathA.c_str());
  std::remove(pathB.c_str());
}

}  // namespace
