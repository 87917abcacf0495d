// oisa_fault: the single stuck-at fault universe of one compiled netlist.
//
// Enumerates the classic full universe — stuck-at-0/1 on every net (stem
// faults) plus stuck-at-0/1 on every fanout branch of every multi-fanout
// net — and collapses it by structural equivalence so simulation only
// visits one representative per class.
//
// Collapsing rule (fanout-free dominator merging): when a net feeds
// exactly one reader entry, a stuck-at at that net is indistinguishable
// from a stuck-at at the reader's output for the gate-local equivalences
//
//   BUF  in/SA-v  == out/SA-v        INV  in/SA-v  == out/SA-!v
//   AND  in/SA-0  == out/SA-0        NAND in/SA-0  == out/SA-1
//   OR   in/SA-1  == out/SA-1        NOR  in/SA-1  == out/SA-0
//
// (controlling input value forces the controlled output value; with no
// other fanout, the faulty machines are identical circuits). Iterating
// the rule over every gate chains faults through fanout-free regions up
// to each region's dominator, which becomes the class representative —
// the member closest to the primary outputs, so the PPSFP engine
// propagates through the shortest cone. XOR/MUX/AOI/OAI/MAJ inputs have
// no controlling value shared this way and stay uncollapsed, as do nets
// that are themselves primary outputs (their faulty value is directly
// observable, so merging them into a downstream fault would be unsound).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_model.h"
#include "netlist/compiled_netlist.h"

namespace oisa::fault {

/// Full + collapsed stuck-at universe over one compiled netlist.
class FaultUniverse {
 public:
  /// Builds and collapses the universe.
  explicit FaultUniverse(
      std::shared_ptr<const netlist::CompiledNetlist> compiled);

  /// Every fault in the universe: 2 per net + 2 per fanout branch of
  /// every net with >= 2 reader entries.
  [[nodiscard]] std::span<const Fault> all() const noexcept { return all_; }

  /// One representative per structural-equivalence class.
  [[nodiscard]] std::span<const Fault> collapsed() const noexcept {
    return reps_;
  }

  /// Class index (into collapsed()) of full-universe fault `faultIndex`.
  [[nodiscard]] std::size_t classOf(std::size_t faultIndex) const {
    return classOf_[faultIndex];
  }

  /// Number of full-universe faults merged into class `classIndex`.
  [[nodiscard]] std::size_t classSize(std::size_t classIndex) const {
    return classSize_[classIndex];
  }

  [[nodiscard]] const std::shared_ptr<const netlist::CompiledNetlist>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::vector<Fault> all_;
  std::vector<Fault> reps_;
  std::vector<std::size_t> classOf_;    // full index -> class index
  std::vector<std::size_t> classSize_;  // class index -> member count
};

/// Evenly strided sample of a fault list, head and tail represented —
/// the shared subset policy for bounded differential checks (benches,
/// tests) over large universes. Returns all of `faults` when it already
/// fits in `maxCount`.
[[nodiscard]] std::vector<Fault> sampleFaults(std::span<const Fault> faults,
                                              std::size_t maxCount);

}  // namespace oisa::fault
