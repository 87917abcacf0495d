#include "fault/coverage.h"

#include <algorithm>
#include <array>
#include <bit>
#include <random>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::fault {

namespace {

using netlist::CompiledNetlist;

// A ternary net value is the set of values the net can take: bit 0 set
// when it may be 0, bit 1 when it may be 1.
constexpr std::uint8_t kLow = 1;
constexpr std::uint8_t kHigh = 2;
constexpr std::uint8_t kUnknown = 3;

[[nodiscard]] constexpr std::uint8_t ternary(StuckAt v) noexcept {
  return v == StuckAt::SA1 ? kHigh : kLow;
}

// Minterms (bits of an 8-entry truth table) whose pin k reads 0.
constexpr std::array<std::uint8_t, 3> kPinLow = {0x55, 0x33, 0x0f};

/// The minterms of `g` its pins can present: a constant pin rules out
/// half of them. Pins in `forcedPins` read `forced` instead of their net.
[[nodiscard]] std::uint8_t minterms(const CompiledNetlist::GateRec& g,
                                    std::span<const std::uint8_t> val,
                                    unsigned forcedPins, std::uint8_t forced) {
  unsigned m = 0xff;
  for (unsigned k = 0; k < 3; ++k) {
    const std::uint8_t v =
        ((forcedPins >> k) & 1u) != 0 ? forced : val[g.in[k]];
    if (v == kLow) m &= kPinLow[k];
    if (v == kHigh) m &= ~unsigned{kPinLow[k]};
  }
  return static_cast<std::uint8_t>(m);
}

/// Whether flipping every pin in `pins` together can change `g`'s output
/// while its other pins hold their constants.
[[nodiscard]] bool sensitive(const CompiledNetlist::GateRec& g, unsigned pins,
                             std::span<const std::uint8_t> val) {
  unsigned flipped = g.truth;  // flipped bit m = truth(m ^ pins)
  for (unsigned k = 0; k < 3; ++k) {
    if (((pins >> k) & 1u) == 0) continue;
    const unsigned shift = 1u << k;
    flipped = ((flipped & kPinLow[k]) << shift) |
              ((flipped & ~unsigned{kPinLow[k]} & 0xffu) >> shift);
  }
  return ((g.truth ^ flipped) & minterms(g, val, pins, kUnknown)) != 0;
}

/// Ternary simulation under the held inputs, with `fault` forced in when
/// it is set.
[[nodiscard]] std::vector<std::uint8_t> propagate(
    const CompiledNetlist& c, std::span<const std::optional<bool>> held,
    const Fault* fault) {
  std::vector<std::uint8_t> val(c.netCount(), kUnknown);
  const auto inputs = c.inputNets();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (held[i]) val[inputs[i]] = *held[i] ? kHigh : kLow;
  }
  std::uint32_t stem = 0xffffffff;
  std::uint32_t branchGate = 0xffffffff;
  unsigned branchPins = 0;
  const std::uint8_t stuck = fault != nullptr ? ternary(fault->stuck) : 0;
  if (fault != nullptr && fault->isStem()) {
    stem = fault->net;
    val[stem] = stuck;
  } else if (fault != nullptr) {
    branchGate = c.readers()[fault->branch] >> 3;
    branchPins = c.readers()[fault->branch] & 7u;
  }
  for (const std::uint32_t gi : c.topologicalOrder()) {
    const CompiledNetlist::GateRec& g = c.gate(gi);
    const unsigned m =
        minterms(g, val, gi == branchGate ? branchPins : 0, stuck);
    val[g.out] = g.out == stem ? stuck
                               : static_cast<std::uint8_t>(
                                     ((g.truth & m) != 0 ? kHigh : 0) |
                                     ((~g.truth & m) != 0 ? kLow : 0));
  }
  return val;
}

/// Per net: whether a change on it can reach a primary output while the
/// other nets hold `val`. One reverse-topological pass.
[[nodiscard]] std::vector<std::uint8_t> observable(
    const CompiledNetlist& c, std::span<const std::uint8_t> val) {
  std::vector<std::uint8_t> obs(c.netCount(), 0);
  for (const std::uint32_t po : c.outputNets()) obs[po] = 1;
  const auto order = c.topologicalOrder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const CompiledNetlist::GateRec& g = c.gate(*it);
    if (obs[g.out] == 0) continue;
    const int arity = netlist::gateArity(g.kind);
    for (int k = 0; k < arity; ++k) {
      unsigned pins = 0;  // every pin the net drives: the CSR merged mask
      for (int j = 0; j < arity; ++j) {
        if (g.in[j] == g.in[k]) pins |= 1u << j;
      }
      if (sensitive(g, pins, val)) obs[g.in[k]] = 1;
    }
  }
  return obs;
}

/// Whether fault `f`'s site (its stem, or its branch's reader pins) is
/// observable.
[[nodiscard]] bool siteObservable(const CompiledNetlist& c, const Fault& f,
                                  std::span<const std::uint8_t> val,
                                  std::span<const std::uint8_t> obs) {
  if (f.isStem()) return obs[f.net] != 0;
  const std::uint32_t entry = c.readers()[f.branch];
  const CompiledNetlist::GateRec& g = c.gate(entry >> 3);
  return obs[g.out] != 0 && sensitive(g, entry & 7u, val);
}

/// Narrows `held` to the inputs that kept their value on every valid
/// lane of the block in `inputWords` (`first`: the campaign's first
/// block, which sets it). Returns whether the held set changed.
bool narrowHeld(std::vector<std::optional<bool>>& held,
                std::span<const std::uint64_t> inputWords, std::size_t count,
                std::size_t words, bool first) {
  bool changed = first;
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (!first && !held[i]) continue;
    std::uint64_t ones = 0;
    std::uint64_t zeros = 0;
    for (std::size_t j = 0; j * 64 < count; ++j) {
      const std::uint64_t lanes =
          count - j * 64 >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << (count - j * 64)) - 1;
      ones |= inputWords[i * words + j] & lanes;
      zeros |= ~inputWords[i * words + j] & lanes;
    }
    const std::optional<bool> value =
        ones != 0 && zeros != 0 ? std::nullopt : std::optional(ones != 0);
    if (first) {
      held[i] = value;
    } else if (value != held[i]) {
      held[i] = std::nullopt;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

std::vector<std::uint8_t> untestableClasses(
    const FaultUniverse& universe, std::span<const std::optional<bool>> held) {
  const CompiledNetlist& c = *universe.compiled();
  if (held.size() != c.inputNets().size()) {
    throw std::invalid_argument(
        "untestableClasses: expected " + std::to_string(c.inputNets().size()) +
        " held entries, got " + std::to_string(held.size()));
  }
  const std::vector<std::uint8_t> good = propagate(c, held, nullptr);
  const std::vector<std::uint8_t> goodObs = observable(c, good);
  const auto classes = universe.collapsed();
  std::vector<std::uint8_t> flags(classes.size(), 0);
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    const Fault& f = classes[ci];
    const std::uint8_t site = good[f.net];
    if (site == ternary(f.stuck)) {  // never excited
      flags[ci] = 1;
      continue;
    }
    // Fewer constants only make more nets observable, and the agreed
    // constants below are a subset of the good machine's, so a site the
    // good machine observes is observable either way.
    if (siteObservable(c, f, good, goodObs)) continue;
    if (site == kUnknown) {
      // Forcing an unknown net refines the good machine's values, so
      // its constants hold in the faulty machine too.
      flags[ci] = 1;
      continue;
    }
    // The site is constant at the opposite value: the fault can move
    // downstream constants, so keep only those both machines agree on.
    std::vector<std::uint8_t> agreed = propagate(c, held, &f);
    for (std::size_t n = 0; n < agreed.size(); ++n) {
      if (agreed[n] != good[n]) agreed[n] = kUnknown;
    }
    flags[ci] = siteObservable(c, f, agreed, observable(c, agreed)) ? 0 : 1;
  }
  return flags;
}

CoverageResult runCoverage(const FaultUniverse& universe,
                           AnyPpsfpEngine& engine,
                           const CoverageOptions& options,
                           const PatternBlockSource& source) {
  // Engine counters drain once per campaign at the end of this function
  // — counters only, outside the per-fault and per-word loops.
  obs::ObsSpan span("fault.coverage", "fault");
  const std::uint64_t faults0 = engine.faultsSimulated();
  const std::uint64_t evals0 = engine.gateEvaluations();
  const std::uint64_t skips0 = engine.activationSkips();
  const auto classes = universe.collapsed();
  const std::size_t kWords = engine.wordsPerNet();
  CoverageResult result;
  result.universeFaults = universe.all().size();
  result.collapsedClasses = classes.size();
  result.detected.assign(classes.size(), 0);
  result.firstDetectedAt.assign(classes.size(), ~std::uint64_t{0});

  std::vector<std::uint64_t> inputWords(
      universe.compiled()->inputNets().size() * kWords, 0);
  std::vector<std::uint64_t> det(kWords, 0);
  std::vector<std::optional<bool>> held(
      universe.compiled()->inputNets().size());
  std::vector<std::uint8_t> untestable(classes.size(), 0);
  std::uint64_t recomputes = 0;
  while (result.patternsApplied < options.patterns &&
         result.detectedClasses < result.collapsedClasses) {
    const std::size_t count = source(inputWords);
    if (count == 0) break;  // source exhausted
    engine.loadPatterns(inputWords, count);
    if (narrowHeld(held, inputWords, count, kWords, recomputes == 0)) {
      untestable = untestableClasses(universe, held);
      ++recomputes;
    }
    // For byte-identity with the 64-lane reference the applied-pattern
    // counter must stop at the sub-block that completed detection, not at
    // the end of the wide block: the reference campaign would have exited
    // its loop right after that 64-pattern block.
    std::size_t lastDetectWord = 0;
    for (std::size_t ci = 0; ci < classes.size(); ++ci) {
      if (untestable[ci] != 0) continue;
      if (options.dropDetected && result.detected[ci] != 0) continue;
      engine.detectLanesInto(classes[ci], det);
      if (result.detected[ci] != 0) continue;
      std::size_t j = 0;
      while (j < kWords && det[j] == 0) ++j;
      if (j == kWords) continue;
      result.detected[ci] = 1;
      ++result.detectedClasses;
      result.firstDetectedAt[ci] =
          result.patternsApplied + 64 * j +
          static_cast<std::uint64_t>(std::countr_zero(det[j]));
      lastDetectWord = std::max(lastDetectWord, j);
    }
    if (result.detectedClasses == result.collapsedClasses) {
      result.patternsApplied +=
          std::min<std::uint64_t>(count, 64 * (lastDetectWord + 1));
    } else {
      result.patternsApplied += count;
    }
  }
  static obs::Counter& faultsSimulated = obs::counter("fault.faults_simulated");
  static obs::Counter& gateEvals = obs::counter("fault.gate_evaluations");
  static obs::Counter& skips = obs::counter("fault.activation_skips");
  static obs::Counter& patterns = obs::counter("fault.patterns_applied");
  static obs::Counter& detected = obs::counter("fault.classes_detected");
  static obs::Counter& untestableCount =
      obs::counter("fault.untestable_classes");
  const auto flagged = static_cast<std::uint64_t>(
      std::count(untestable.begin(), untestable.end(), std::uint8_t{1}));
  span.arg("untestable", flagged);
  span.arg("recomputes", recomputes);
  faultsSimulated.add(engine.faultsSimulated() - faults0);
  gateEvals.add(engine.gateEvaluations() - evals0);
  skips.add(engine.activationSkips() - skips0);
  patterns.add(result.patternsApplied);
  detected.add(result.detectedClasses);
  untestableCount.add(flagged);
  return result;
}

CoverageResult runRandomCoverage(const FaultUniverse& universe,
                                 AnyPpsfpEngine& engine,
                                 const CoverageOptions& options) {
  std::mt19937_64 rng(options.seed);
  std::uint64_t remaining = options.patterns;
  const std::size_t lanes = engine.lanes();
  const std::size_t kWords = engine.wordsPerNet();
  const std::size_t inputs = universe.compiled()->inputNets().size();
  const PatternBlockSource source =
      [&](std::span<std::uint64_t> inputWords) -> std::size_t {
    if (remaining == 0) return 0;
    const auto count = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, lanes));
    remaining -= count;
    // Draw sub-block-major — one fresh word per primary input, then the
    // next 64-pattern sub-block — replaying the 64-lane reference's RNG
    // sequence exactly. Sub-blocks past `count` stay zero; the engine
    // masks them out of detection.
    std::fill(inputWords.begin(), inputWords.end(), 0);
    const std::size_t blocks = (count + 63) / 64;
    for (std::size_t j = 0; j < blocks; ++j) {
      for (std::size_t i = 0; i < inputs; ++i) {
        inputWords[i * kWords + j] = rng();
      }
    }
    return count;
  };
  return runCoverage(universe, engine, options, source);
}

}  // namespace oisa::fault
