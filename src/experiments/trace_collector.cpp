#include "experiments/trace_collector.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "circuits/isa_netlist.h"
#include "netlist/bitops.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

namespace oisa::experiments {

TraceCollector::TraceCollector(const circuits::SynthesizedDesign& design,
                               double periodNs, std::size_t maxLanes)
    : design_(design),
      behavioral_(design.config),
      compiled_(netlist::CompiledNetlist::compile(design.netlist)),
      sampler_(timing::makeLaneSampler(compiled_, design.delays, periodNs)),
      periodNs_(periodNs),
      periodPs_(sampler_->periodPs()),
      maxLanes_(std::min<std::size_t>(
          std::max<std::size_t>(maxLanes == 0 ? sampler_->lanes() : maxLanes,
                                1),
          sampler_->lanes())) {
  // Warm-up bound: a latched output depends on primary-input values within
  // one maximum output path delay D before its edge. With settle + W
  // replayed cycles ahead of a chunk, all input samples a recorded cycle
  // can reach are reproduced exactly iff (W + 2) * period > D. The STA
  // critical delay bounds D (per-gate quantization floors); +1 ps absorbs
  // double-summation noise in the ns-domain STA.
  const timing::TimePs d =
      timing::quantizeSpanPs(
          timing::criticalDelayNs(design.netlist, design.delays)) +
      1;
  while ((static_cast<timing::TimePs>(warmUp_) + 2) * periodPs_ <= d) {
    ++warmUp_;
  }
}

std::size_t TraceCollector::lanesFor(std::uint64_t cycles) const noexcept {
  // Every chunk must hold at least warm-up + 1 cycles so its settle vector
  // exists inside the stream; degenerate runs collapse to fewer lanes.
  const auto perLane = static_cast<std::uint64_t>(warmUp_) + 1;
  const std::uint64_t lanes = cycles / perLane;
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(lanes, 1, maxLanes_));
}

predict::Trace TraceCollector::collect(Workload& workload,
                                       std::uint64_t cycles) {
  predict::Trace trace(cycles);
  run(workload, cycles, trace.data(), nullptr);
  return trace;
}

void TraceCollector::stream(Workload& workload, std::uint64_t cycles,
                            const WindowConsumer& consume) {
  run(workload, cycles, nullptr, consume);
}

void TraceCollector::run(Workload& workload, std::uint64_t cycles,
                         predict::TraceRecord* inPlace,
                         const WindowConsumer& consume) {
  // stimuli[lead + 1 + t] drives record t of the current window; the
  // lead + 1 stimuli before it are carried over from the previous window
  // (at first: the settled reset vector alone). The draw sequence is the
  // sequential collector's, so workload state evolves identically.
  const auto wu = static_cast<std::size_t>(warmUp_);
  const std::uint64_t capacity = maxLanes_ * kWindowSteps;
  const auto windowCap =
      static_cast<std::size_t>(std::min<std::uint64_t>(cycles, capacity));
  std::vector<Stimulus> stimuli(windowCap + wu + 1);
  stimuli[0] = workload.next();
  if (cycles == 0) return;
  std::vector<predict::TraceRecord> buffer(inPlace != nullptr ? 0
                                                              : windowCap);

  // The lane path needs the adder port convention (2W+1 inputs, W+1
  // outputs) to fit one 64x64 output transpose per sweep; anything else —
  // and explicit --lanes=1 style requests — takes the scalar loop, whose
  // engine persists across the run's windows.
  const int width = design_.config.width;
  const bool adderPorts =
      width <= 63 &&
      compiled_->inputNets().size() ==
          static_cast<std::size_t>(2 * width + 1) &&
      compiled_->outputNets().size() == static_cast<std::size_t>(width + 1);
  std::optional<timing::TimedSimulator> scalar;
  if (lanesFor(cycles) <= 1 || !adderPorts) {
    scalar.emplace(compiled_, design_.delays);
  }

  // One span per collect; engine counters are drained once per window,
  // never inside the per-cycle or per-word loops (the instrumentation-cost
  // contract micro_obs gates).
  const obs::ObsSpan span("trace.collect", "sim", "cycles", cycles);
  static obs::Counter& eventsCommitted = obs::counter("sim.events_committed");
  static obs::Counter& laneTransitions = obs::counter("sim.lane_transitions");
  static obs::Counter& collects = obs::counter("sim.collects");
  collects.add();

  std::size_t lead = 0;
  std::uint64_t scalarEvents = 0;
  for (std::uint64_t first = 0; first < cycles;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cycles - first, capacity));
    const std::span<const Stimulus> stims(stimuli.data(), lead + 1 + n);
    for (std::size_t t = 0; t < n; ++t) {
      stimuli[lead + 1 + t] = workload.next();
    }
    const std::span<predict::TraceRecord> records(
        inPlace != nullptr ? inPlace + first : buffer.data(), n);
    for (std::size_t t = 0; t < n; ++t) {
      const Stimulus& stim = stims[lead + 1 + t];
      predict::TraceRecord& rec = records[t];
      rec.a = stim.a;
      rec.b = stim.b;
      rec.carryIn = stim.carryIn;
      const core::IsaSum diamond =
          behavioral_.exactAdd(stim.a, stim.b, stim.carryIn);
      rec.diamond = diamond.sum;
      rec.diamondCout = diamond.carryOut;
      const core::IsaSum gold = behavioral_.add(stim.a, stim.b, stim.carryIn);
      rec.gold = gold.sum;
      rec.goldCout = gold.carryOut;
    }
    if (scalar) {
      fillSilverScalar(*scalar, stims, first, records);
      eventsCommitted.add(scalar->eventsProcessed() - scalarEvents);
      scalarEvents = scalar->eventsProcessed();
    } else {
      // The sweep resets the engine: its tallies are this window's alone.
      fillSilverLane(stims, lead, first, records);
      eventsCommitted.add(sampler_->simulator().eventsProcessed());
      laneTransitions.add(sampler_->simulator().laneTransitionsCommitted());
    }
    if (consume) consume(records);

    // Carry the stimuli the next window's head chunk settles and warms up
    // on: the one ahead of its first record and up to wu before that.
    first += n;
    const auto next =
        static_cast<std::size_t>(std::min<std::uint64_t>(wu, first));
    if (lead + n > next) {
      std::copy(stims.end() - static_cast<std::ptrdiff_t>(next + 1),
                stims.end(), stimuli.begin());
    }
    lead = next;
  }
}

void TraceCollector::fillSilverScalar(
    timing::TimedSimulator& sim, std::span<const Stimulus> stimuli,
    std::uint64_t first, std::span<predict::TraceRecord> window) {
  const int width = design_.config.width;
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> outputs;
  const auto apply = [&](const Stimulus& s) {
    circuits::packOperandsInto(s.a, s.b, s.carryIn, width, inputs);
    sim.applyInputs(inputs);
  };
  // The run's first window settles the engine on the reset vector; later
  // windows continue from where the previous one stopped.
  if (first == 0) {
    apply(stimuli[0]);
    (void)sim.settlePs();
  }
  const auto drive = stimuli.last(window.size());
  for (std::size_t t = 0; t < window.size(); ++t) {
    apply(drive[t]);
    sim.advancePs(periodPs_);
    sim.sampleOutputsInto(outputs);
    window[t].silver = circuits::unpackSum(outputs, width);
    window[t].silverCout = circuits::unpackCarryOut(outputs, width);
  }
}

void TraceCollector::fillSilverLane(std::span<const Stimulus> stimuli,
                                    std::size_t lead, std::uint64_t first,
                                    std::span<predict::TraceRecord> window) {
  const std::size_t kWords = sampler_->wordsPerNet();
  const auto width = static_cast<std::size_t>(design_.config.width);
  const std::size_t n = window.size();
  const std::size_t lanes = lanesFor(n);
  const auto wu = static_cast<std::size_t>(warmUp_);
  const std::uint64_t sumMask = (std::uint64_t{1} << width) - 1;

  // Contiguous chunks, sizes differing by at most one. Lane L replays a
  // settle on the vector ahead of its warm-up window, warm(L) discarded
  // cycles, then its recorded range. Lanes with shorter schedules idle
  // (inputs frozen, settled, zero events) at the *start*, so every lane
  // finishes on the final sweep and the per-sweep bookkeeping stays
  // uniform. The same argument covers every lane width and every window
  // boundary: each record's value depends only on its own chunk's replay,
  // so neither the chunk count (64 or 512) nor the windowing shows up in
  // the trace — only in the wall time.
  const std::size_t base = n / lanes;
  const std::size_t rem = n % lanes;
  std::vector<std::size_t> start(lanes);  // first recorded window record
  std::vector<std::size_t> len(lanes);
  std::vector<std::size_t> warm(lanes);   // per-lane warm-up (clamped)
  std::size_t steps = 0;                  // sweeps needed (max over lanes)
  for (std::size_t L = 0, c = 0; L < lanes; ++L) {
    start[L] = c;
    len[L] = base + (L < rem ? 1 : 0);
    c += len[L];
    // Warm-up may reach back across the window boundary, never past the
    // run's reset vector.
    warm[L] = static_cast<std::size_t>(
        std::min<std::uint64_t>(wu, first + start[L]));
    steps = std::max(steps, warm[L] + len[L]);
  }
  std::vector<std::size_t> idle(lanes);
  for (std::size_t L = 0; L < lanes; ++L) {
    idle[L] = steps - warm[L] - len[L];
  }
  // Stimulus k of lane L's replay; k = 0 is its settle vector.
  const auto replay = [&](std::size_t L, std::size_t k) -> const Stimulus& {
    return stimuli[lead + start[L] - warm[L] + k];
  };

  // Per-lane operand state (held constant while a lane idles) and the
  // lane-major input assembly: one 64x64 transpose per operand per
  // 64-lane sub-block per sweep turns the row stimuli into the
  // per-primary-input words the engine consumes (sub-word j of input i
  // carries lanes [64j, 64j + 64)).
  std::vector<std::uint64_t> curA(sampler_->lanes(), 0);
  std::vector<std::uint64_t> curB(sampler_->lanes(), 0);
  std::vector<std::uint64_t> cinWords(kWords, 0);
  std::array<std::uint64_t, 64> aM{};
  std::array<std::uint64_t, 64> bM{};
  std::array<std::uint64_t, 64> outM{};
  const std::size_t subBlocks = (lanes + 63) / 64;
  std::vector<std::uint64_t> inWords((2 * width + 1) * kWords, 0);
  std::vector<std::uint64_t> outWords;
  const auto assembleInputs = [&] {
    for (std::size_t sb = 0; sb < subBlocks; ++sb) {
      std::copy_n(curA.begin() + static_cast<std::ptrdiff_t>(sb * 64), 64,
                  aM.begin());
      std::copy_n(curB.begin() + static_cast<std::ptrdiff_t>(sb * 64), 64,
                  bM.begin());
      netlist::transpose64(aM);
      netlist::transpose64(bM);
      for (std::size_t i = 0; i < width; ++i) {
        inWords[i * kWords + sb] = aM[i];
        inWords[(width + i) * kWords + sb] = bM[i];
      }
      inWords[2 * width * kWords + sb] = cinWords[sb];
    }
  };
  const auto setLane = [&](std::size_t L, const Stimulus& s) {
    curA[L] = s.a;
    curB[L] = s.b;
    const std::uint64_t bit = std::uint64_t{1} << (L % 64);
    std::uint64_t& w = cinWords[L / 64];
    w = s.carryIn ? (w | bit) : (w & ~bit);
  };

  sampler_->simulator().reset();
  for (std::size_t L = 0; L < lanes; ++L) setLane(L, replay(L, 0));
  assembleInputs();
  sampler_->initialize(inWords);

  for (std::size_t j = 0; j < steps; ++j) {
    for (std::size_t L = 0; L < lanes; ++L) {
      if (j >= idle[L]) setLane(L, replay(L, 1 + j - idle[L]));
    }
    assembleInputs();
    sampler_->stepInto(inWords, outWords);
    // Output words are lane-major (sub-word sb of word o = output o across
    // lanes [64sb, 64sb + 64)); one transpose per sub-block yields each
    // lane's packed output value in its own row.
    for (std::size_t sb = 0; sb < subBlocks; ++sb) {
      for (std::size_t o = 0; o <= width; ++o) {
        outM[o] = outWords[o * kWords + sb];
      }
      std::fill(outM.begin() + static_cast<std::ptrdiff_t>(width + 1),
                outM.end(), 0);
      netlist::transpose64(outM);
      const std::size_t laneEnd = std::min<std::size_t>(lanes - sb * 64, 64);
      for (std::size_t l = 0; l < laneEnd; ++l) {
        const std::size_t L = sb * 64 + l;
        if (j < idle[L] + warm[L]) continue;  // idling or warming up
        predict::TraceRecord& rec =
            window[start[L] + (j - idle[L] - warm[L])];
        rec.silver = outM[l] & sumMask;
        rec.silverCout = ((outM[l] >> width) & 1u) != 0;
      }
    }
  }
}

CollectedTrace TraceCollector::collectPacked(
    Workload& workload, std::uint64_t cycles,
    const predict::FeatureExtractor& extractor) {
  if (extractor.width() != design_.config.width) {
    throw std::invalid_argument(
        "TraceCollector::collectPacked: extractor width mismatch");
  }
  CollectedTrace out;
  out.trace = collect(workload, cycles);
  out.packed = extractor.packTrace(out.trace);
  return out;
}

predict::Trace collectTrace(const circuits::SynthesizedDesign& design,
                            double periodNs, Workload& workload,
                            std::uint64_t cycles) {
  TraceCollector collector(design, periodNs);
  return collector.collect(workload, cycles);
}

predict::Trace collectTraceScalar(const circuits::SynthesizedDesign& design,
                                  double periodNs, Workload& workload,
                                  std::uint64_t cycles) {
  const int width = design.config.width;
  const core::IsaAdder behavioral(design.config);
  timing::ClockedSampler sampler(design.netlist, design.delays, periodNs);

  // Reusable input/output buffers: the per-cycle loop performs no heap
  // allocation (trace growth aside), keeping the wheel engine's event
  // processing the only per-cycle cost.
  std::vector<std::uint8_t> inputs;
  std::vector<std::uint8_t> outputs;

  const Stimulus reset = workload.next();
  circuits::packOperandsInto(reset.a, reset.b, reset.carryIn, width, inputs);
  sampler.initialize(inputs);

  predict::Trace trace;
  trace.reserve(cycles);
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const Stimulus stim = workload.next();
    circuits::packOperandsInto(stim.a, stim.b, stim.carryIn, width, inputs);
    sampler.stepInto(inputs, outputs);

    predict::TraceRecord rec;
    rec.a = stim.a;
    rec.b = stim.b;
    rec.carryIn = stim.carryIn;
    const core::IsaSum diamond =
        behavioral.exactAdd(stim.a, stim.b, stim.carryIn);
    rec.diamond = diamond.sum;
    rec.diamondCout = diamond.carryOut;
    const core::IsaSum gold = behavioral.add(stim.a, stim.b, stim.carryIn);
    rec.gold = gold.sum;
    rec.goldCout = gold.carryOut;
    rec.silver = circuits::unpackSum(outputs, width);
    rec.silverCout = circuits::unpackCarryOut(outputs, width);
    trace.push_back(rec);
  }
  return trace;
}

}  // namespace oisa::experiments
