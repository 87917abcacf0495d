#include "fault/fault_universe.h"

#include <array>
#include <utility>

namespace oisa::fault {

namespace {

using netlist::CompiledNetlist;
using netlist::GateKind;

/// Gate-local (controlling input value -> forced output value) pairs that
/// make an input stem fault equivalent to an output stem fault.
struct EquivRule {
  bool in;
  bool out;
};

std::span<const EquivRule> rulesFor(GateKind kind) {
  static constexpr std::array<EquivRule, 2> kBuf{{{false, false},
                                                  {true, true}}};
  static constexpr std::array<EquivRule, 2> kInv{{{false, true},
                                                  {true, false}}};
  static constexpr std::array<EquivRule, 1> kAnd{{{false, false}}};
  static constexpr std::array<EquivRule, 1> kNand{{{false, true}}};
  static constexpr std::array<EquivRule, 1> kOr{{{true, true}}};
  static constexpr std::array<EquivRule, 1> kNor{{{true, false}}};
  switch (kind) {
    case GateKind::Buf: return kBuf;
    case GateKind::Inv: return kInv;
    case GateKind::And2:
    case GateKind::And3: return kAnd;
    case GateKind::Nand2: return kNand;
    case GateKind::Or2:
    case GateKind::Or3: return kOr;
    case GateKind::Nor2: return kNor;
    default: return {};
  }
}

/// Union-find over full-universe fault indices, tracking per class the
/// preferred representative (the member merged in from the output side,
/// i.e. the fanout-free region's dominator).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), rep_(n), rank_(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = i;
      rep_[i] = i;
    }
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the classes of `in` and `out`; the merged class inherits the
  /// representative of `out`'s class (the downstream side).
  void uniteTowards(std::size_t in, std::size_t out) {
    std::size_t ri = find(in);
    std::size_t ro = find(out);
    if (ri == ro) return;
    const std::size_t preferred = rep_[ro];
    if (rank_[ri] < rank_[ro]) std::swap(ri, ro);
    parent_[ro] = ri;
    if (rank_[ri] == rank_[ro]) ++rank_[ri];
    rep_[ri] = preferred;
  }

  [[nodiscard]] std::size_t representative(std::size_t root) const {
    return rep_[root];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rep_;  ///< valid at roots
  std::vector<std::uint8_t> rank_;
};

}  // namespace

FaultUniverse::FaultUniverse(
    std::shared_ptr<const CompiledNetlist> compiled)
    : compiled_(std::move(compiled)) {
  const std::size_t nets = compiled_->netCount();
  const auto offsets = compiled_->fanoutOffsets();

  // Full universe. Stem faults first — fault (net, SA-v) lives at index
  // 2*net + v, which is what the collapsing unions address — then branch
  // faults for every reader entry of every multi-fanout net.
  all_.reserve(2 * nets);
  for (std::uint32_t n = 0; n < nets; ++n) {
    all_.push_back(Fault{n, Fault::kStem, StuckAt::SA0});
    all_.push_back(Fault{n, Fault::kStem, StuckAt::SA1});
  }
  for (std::uint32_t n = 0; n < nets; ++n) {
    if (offsets[n + 1] - offsets[n] < 2) continue;
    for (std::uint32_t i = offsets[n]; i < offsets[n + 1]; ++i) {
      all_.push_back(Fault{n, i, StuckAt::SA0});
      all_.push_back(Fault{n, i, StuckAt::SA1});
    }
  }

  std::vector<bool> isOutput(nets, false);
  for (const std::uint32_t po : compiled_->outputNets()) isOutput[po] = true;

  const auto stemId = [](std::uint32_t net, bool v) {
    return static_cast<std::size_t>(2 * net + (v ? 1 : 0));
  };

  // Gate-local equivalence, iterated over every gate: chains of unions
  // walk each fanout-free region up to its dominator.
  UnionFind uf(all_.size());
  for (std::uint32_t gi = 0; gi < compiled_->gateCount(); ++gi) {
    const CompiledNetlist::GateRec& g = compiled_->gate(gi);
    const auto rules = rulesFor(g.kind);
    if (rules.empty()) continue;
    const int arity = netlist::gateArity(g.kind);
    for (int pin = 0; pin < arity; ++pin) {
      const std::uint32_t n = g.in[pin];
      // Skip duplicate pins of one net: the first visit already united.
      bool seen = false;
      for (int p = 0; p < pin; ++p) seen = seen || g.in[p] == n;
      if (seen) continue;
      // Equivalence needs the input's faulty value to be invisible
      // anywhere but through this gate: exactly one reader entry
      // (necessarily this gate; a merged multi-pin entry still qualifies,
      // since a controlling value on any pin forces the output) and no
      // direct primary-output tap.
      if (offsets[n + 1] - offsets[n] != 1 || isOutput[n]) continue;
      for (const EquivRule& rule : rules) {
        uf.uniteTowards(stemId(n, rule.in), stemId(g.out, rule.out));
      }
    }
  }

  // Freeze classes in first-seen order.
  classOf_.resize(all_.size());
  std::vector<std::size_t> classIndexOfRoot(all_.size(),
                                            static_cast<std::size_t>(-1));
  for (std::size_t f = 0; f < all_.size(); ++f) {
    const std::size_t root = uf.find(f);
    std::size_t& ci = classIndexOfRoot[root];
    if (ci == static_cast<std::size_t>(-1)) {
      ci = reps_.size();
      reps_.push_back(all_[uf.representative(root)]);
      classSize_.push_back(0);
    }
    classOf_[f] = ci;
    ++classSize_[ci];
  }
}

std::vector<Fault> sampleFaults(std::span<const Fault> faults,
                                std::size_t maxCount) {
  if (faults.size() <= maxCount) return {faults.begin(), faults.end()};
  std::vector<Fault> out;
  out.reserve(maxCount);
  // Exact-count even spread (the selectTimedFaults formula): indices are
  // strictly increasing because faults.size() > maxCount.
  for (std::size_t i = 0; i < maxCount; ++i) {
    out.push_back(faults[i * faults.size() / maxCount]);
  }
  return out;
}

}  // namespace oisa::fault
