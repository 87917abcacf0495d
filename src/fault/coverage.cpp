#include "fault/coverage.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

#include "netlist/bdd.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::fault {

namespace {

using netlist::Bdd;
using netlist::CompiledNetlist;

/// Writes flags[ci] for each class in `candidates`: 1 when no pattern
/// honouring `held` detects it, else 0. The good machine's BDDs are
/// built once under the held constants; each class then forces its stem,
/// or its branch's reader pins, and rebuilds only the gates a difference
/// reaches, a level at a time (a gate's level is one past its deepest
/// driving gate), so the walk meets the shallowest differing output before
/// any deeper gate. The class is flagged when no primary output's node
/// differs. A class whose cone needs a node past the cap stays unflagged.
void flagUndetectable(const FaultUniverse& universe,
                      std::span<const std::optional<bool>> held,
                      std::span<const std::uint32_t> candidates,
                      std::vector<std::uint8_t>& flags) {
  const CompiledNetlist& c = *universe.compiled();
  const auto gates = static_cast<std::uint32_t>(c.gateCount());
  const auto inputs = c.inputNets();
  constexpr std::uint32_t kNone = 0xffffffff;

  // Held inputs are constants. Free inputs become variables in
  // first-visit order of a DFS from the outputs in declaration order,
  // which interleaves a_i with b_i; inputs no output reads come last.
  Bdd bdd;
  std::vector<Bdd::Node> good(c.netCount(), Bdd::kFalse);
  std::vector<std::uint8_t> unnamed(c.netCount(), 0);  // free, no variable yet
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (held[i]) good[inputs[i]] = *held[i] ? Bdd::kTrue : Bdd::kFalse;
    unnamed[inputs[i]] = held[i] ? 0 : 1;
  }
  std::uint32_t vars = 0;
  const auto name = [&](std::uint32_t n) {
    if (unnamed[n] == 0) return;
    unnamed[n] = 0;
    good[n] = bdd.var(vars++);
  };
  std::vector<std::uint32_t> drivingGate(c.netCount(), kNone);
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    drivingGate[c.gate(gi).out] = gi;
  }
  std::vector<std::uint8_t> seen(c.netCount(), 0);
  std::vector<std::uint32_t> stack(c.outputNets().rbegin(),
                                   c.outputNets().rend());
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (seen[n] != 0) continue;
    seen[n] = 1;
    if (drivingGate[n] == kNone) {
      name(n);
      continue;
    }
    const CompiledNetlist::GateRec& g = c.gate(drivingGate[n]);
    for (int k = netlist::gateArity(g.kind) - 1; k >= 0; --k) {
      stack.push_back(g.in[static_cast<std::size_t>(k)]);
    }
  }
  for (const std::uint32_t n : inputs) name(n);
  const auto eval = [&](const CompiledNetlist::GateRec& g,
                        std::span<const Bdd::Node> val, unsigned forcedPins,
                        Bdd::Node forced) {
    std::array<Bdd::Node, 3> pins{};
    for (std::size_t k = 0; k < 3; ++k) {
      pins[k] = ((forcedPins >> k) & 1u) != 0 ? forced : val[g.in[k]];
    }
    return bdd.gate(g.truth, pins);
  };
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    good[c.gate(gi).out] = eval(c.gate(gi), good, 0, Bdd::kFalse);
  }
  bdd.mark();

  // Levels in gate order (a topological order); one bucket per level.
  std::vector<std::uint32_t> level(gates, 0);
  std::vector<std::uint32_t> netLevel(c.netCount(), 0);
  std::size_t levels = 0;
  for (std::uint32_t gi = 0; gi < gates; ++gi) {
    const CompiledNetlist::GateRec& g = c.gate(gi);
    for (int k = 0; k < netlist::gateArity(g.kind); ++k) {
      const std::uint32_t n = g.in[static_cast<std::size_t>(k)];
      level[gi] = std::max(level[gi], netLevel[n]);
    }
    netLevel[g.out] = level[gi] + 1;
    levels = std::max<std::size_t>(levels, netLevel[g.out]);
  }
  std::vector<std::vector<std::uint32_t>> bucket(levels);
  std::vector<std::uint32_t> queuedAt(gates, 0);  // walk that queued the gate
  std::uint32_t walk = 0;
  const auto offsets = c.fanoutOffsets();
  const auto readers = c.readers();
  std::vector<std::uint8_t> isOutput(c.netCount(), 0);
  for (const std::uint32_t po : c.outputNets()) isOutput[po] = 1;

  std::vector<Bdd::Node> faulty = good;
  std::vector<std::uint32_t> touched;
  const auto classes = universe.collapsed();
  for (const std::uint32_t ci : candidates) {
    const Fault& f = classes[ci];
    const Bdd::Node stuck =
        f.stuck == StuckAt::SA1 ? Bdd::kTrue : Bdd::kFalse;
    ++walk;
    std::uint32_t forcedGate = kNone;
    unsigned forcedPins = 0;
    std::size_t lvl = levels;  // shallowest level holding a queued gate
    bool observed = false;     // a primary output differs
    bool unknown = false;      // a node past the cap was needed
    const auto queue = [&](std::uint32_t gi) {
      if (queuedAt[gi] == walk) return;
      queuedAt[gi] = walk;
      bucket[level[gi]].push_back(gi);
      lvl = std::min<std::size_t>(lvl, level[gi]);
    };
    const auto differ = [&](std::uint32_t n, Bdd::Node node) {
      faulty[n] = node;
      touched.push_back(n);
      observed = observed || isOutput[n] != 0;
      for (std::uint32_t i = offsets[n]; i < offsets[n + 1]; ++i) {
        queue(readers[i] >> 3);
      }
    };
    if (f.isStem()) {
      unknown = good[f.net] == Bdd::kOverflow;
      if (!unknown && good[f.net] != stuck) differ(f.net, stuck);
    } else {
      forcedGate = readers[f.branch] >> 3;
      forcedPins = readers[f.branch] & 7u;
      queue(forcedGate);
    }
    // A gate's inputs sit at shallower levels, so each queued gate is
    // rebuilt once, after every difference that reaches it.
    for (; lvl < levels && !observed && !unknown; ++lvl) {
      for (std::size_t i = 0; i < bucket[lvl].size() && !observed && !unknown;
           ++i) {
        const std::uint32_t gi = bucket[lvl][i];
        const CompiledNetlist::GateRec& g = c.gate(gi);
        const Bdd::Node node =
            eval(g, faulty, gi == forcedGate ? forcedPins : 0, stuck);
        unknown = node == Bdd::kOverflow || good[g.out] == Bdd::kOverflow;
        if (!unknown && node != good[g.out]) differ(g.out, node);
      }
    }
    for (auto& queued : bucket) queued.clear();
    flags[ci] = !observed && !unknown ? 1 : 0;
    for (const std::uint32_t n : touched) faulty[n] = good[n];
    touched.clear();
    bdd.release();
  }
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
  std::vector<std::uint32_t> all(universe.collapsed().size());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<std::uint8_t> flags(all.size(), 0);
  flagUndetectable(universe, held, all, flags);
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
  // The classes each swept block simulates: neither flagged nor detected.
  // Empty means nothing is left to find.
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> undetected;
  std::uint64_t recomputes = 0;
  std::uint64_t swept = 0;
  std::uint64_t skipped = 0;
  while (result.patternsApplied < options.patterns &&
         result.detectedClasses < result.collapsedClasses) {
    const std::size_t count = source(inputWords);
    if (count == 0) break;  // source exhausted
    const bool narrowed =
        narrowHeld(held, inputWords, count, kWords, recomputes == 0);
    if (narrowed) {
      // This block may break the constants the old flags relied on, so
      // it simulates every class; the new flags start with the next.
      std::fill(untestable.begin(), untestable.end(), std::uint8_t{0});
      live.clear();
      for (std::uint32_t ci = 0; ci < classes.size(); ++ci) {
        if (result.detected[ci] == 0) live.push_back(ci);
      }
    }
    // For byte-identity with the 64-lane reference the applied-pattern
    // counter must stop at the sub-block that completed detection, not at
    // the end of the wide block: the reference campaign would have exited
    // its loop right after that 64-pattern block.
    std::size_t lastDetectWord = 0;
    if (live.empty()) {
      ++skipped;
    } else {
      ++swept;
      engine.loadPatterns(inputWords, count);
    }
    for (const std::uint32_t ci : live) {
      engine.detectLanesInto(classes[ci], det);
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
    if (narrowed) {
      // Flag lazily: only what this block left undetected needs a proof.
      undetected.clear();
      for (const std::uint32_t ci : live) {
        if (result.detected[ci] == 0) undetected.push_back(ci);
      }
      flagUndetectable(universe, held, undetected, untestable);
      ++recomputes;
    }
    std::erase_if(live, [&](std::uint32_t ci) {
      return untestable[ci] != 0 || result.detected[ci] != 0;
    });
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
  static obs::Counter& blocksSwept = obs::counter("fault.blocks_swept");
  static obs::Counter& blocksSkipped = obs::counter("fault.blocks_skipped");
  const auto flagged = static_cast<std::uint64_t>(
      std::count(untestable.begin(), untestable.end(), std::uint8_t{1}));
  span.arg("swept", swept);
  span.arg("skipped", skipped);
  span.arg("untestable", flagged);
  span.arg("recomputes", recomputes);
  faultsSimulated.add(engine.faultsSimulated() - faults0);
  gateEvals.add(engine.gateEvaluations() - evals0);
  skips.add(engine.activationSkips() - skips0);
  patterns.add(result.patternsApplied);
  detected.add(result.detectedClasses);
  untestableCount.add(flagged);
  blocksSwept.add(swept);
  blocksSkipped.add(skipped);
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
