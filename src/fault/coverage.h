// oisa_fault: random/workload-pattern fault-coverage campaigns.
//
// Drives a PPSFP engine over a stream of W-pattern blocks and tracks
// which collapsed fault classes have been detected. Detected classes are
// dropped from later blocks (classic fault dropping — the bulk of the
// universe falls in the first few blocks, so dropping turns the campaign
// cost from classes x blocks into roughly classes + hard-fault tails).
// The detected set is independent of dropping; only the work saved
// changes.
//
// Nor is a class simulated while no pattern applied so far could detect
// it. After each block the campaign narrows the *held set*: the primary
// inputs that kept one value on every valid lane of every block so far
// (the paper's workloads hold carry-in low throughout). The set only
// shrinks. The block that sets or shrinks it simulates every class not
// yet dropped; then the classes it left undetected are flagged when no
// pattern honouring the new set can detect them (untestableClasses, at
// most inputs + 1 passes per campaign). Later blocks simulate only the
// classes neither flagged nor dropped, and once none is left they skip
// the good-machine sweep too: the block is still drawn, narrows the held
// set and counts its patterns, and a shrink re-flags and resumes
// sweeping. Every pattern applied while a class is flagged honours the
// held set it was flagged under, so skipping it changes no detected
// flag, first-detection index or pattern count: CoverageResult equals a
// campaign that simulates every class on every block.
//
// The campaign takes its engine as an argument — any variant
// makePpsfpEngine builds, through AnyPpsfpEngine — and keeps its results
// byte-identical to the 64-lane reference: patterns stream through the
// block in sub-block-major lane order (pattern p of a block sits in bit
// p%64 of sub-word p/64), first-detection indices are read off the
// earliest detecting sub-word, and the applied-pattern counter advances
// per 64-pattern sub-block — so CoverageResult is a pure function of the
// pattern stream, not of the engine width. A pattern source that packs
// one word per input is a 64-lane source: run it on
// makePpsfpEngine(compiled, {}), the 64-lane engine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_universe.h"
#include "fault/ppsfp_dispatch.h"

namespace oisa::fault {

/// Campaign controls.
struct CoverageOptions {
  std::uint64_t patterns = 1 << 14;  ///< stimuli to apply
  std::uint64_t seed = 1;            ///< RNG seed (random-pattern campaigns)
};

/// Campaign result over the collapsed universe.
struct CoverageResult {
  std::size_t universeFaults = 0;    ///< full universe size
  std::size_t collapsedClasses = 0;
  std::size_t detectedClasses = 0;
  std::uint64_t patternsApplied = 0;
  /// Per collapsed class: first pattern index whose block detected it
  /// (~0 when undetected).
  std::vector<std::uint64_t> firstDetectedAt;
  /// Per collapsed class: detected flag.
  std::vector<std::uint8_t> detected;

  [[nodiscard]] double coverage() const noexcept {
    return collapsedClasses == 0
               ? 0.0
               : static_cast<double>(detectedClasses) /
                     static_cast<double>(collapsedClasses);
  }
};

/// Fills `inputWords` (wordsPerNet words per primary input, input-major,
/// lane-major within each input) with the next block of stimuli and
/// returns how many patterns it packed (1..lanes; 0 ends the campaign
/// early). Pattern p of the block goes to bit p%64 of sub-word p/64.
using PatternBlockSource =
    std::function<std::size_t(std::span<std::uint64_t> inputWords)>;

/// Runs a campaign over `source` blocks until `options.patterns` stimuli
/// were applied, every class is detected, or the source runs dry. Blocks
/// drawn once every class is detected or flagged are counted but not
/// simulated.
[[nodiscard]] CoverageResult runCoverage(const FaultUniverse& universe,
                                         AnyPpsfpEngine& engine,
                                         const CoverageOptions& options,
                                         const PatternBlockSource& source);

/// Per collapsed class of `universe`: 1 when no pattern that gives each
/// primary input i (declaration order) the value `held[i]` — any value
/// where it is nullopt — can detect the class, else 0. Exact up to the
/// BDD node cap (netlist::Bdd::kNodeCap): the held inputs become
/// constants and the free ones variables, the good machine is built once,
/// and each class rebuilds only its fault's fanout cone; it is flagged
/// when no primary output's function changes. A class whose cone needs
/// more nodes than the cap stays 0, so a 1 is always a proof.
/// runCoverage derives `held` from the patterns it applies. Throws
/// std::invalid_argument when `held` does not have one entry per primary
/// input.
[[nodiscard]] std::vector<std::uint8_t> untestableClasses(
    const FaultUniverse& universe, std::span<const std::optional<bool>> held);

/// Convenience campaign: uniform random primary-input patterns. The RNG
/// stream is drawn one 64-pattern sub-block at a time (all inputs, then
/// the next sub-block), so any width replays the 64-lane draw sequence.
[[nodiscard]] CoverageResult runRandomCoverage(const FaultUniverse& universe,
                                               AnyPpsfpEngine& engine,
                                               const CoverageOptions& options);

}  // namespace oisa::fault
