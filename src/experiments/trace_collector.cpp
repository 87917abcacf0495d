#include "experiments/trace_collector.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "circuits/isa_netlist.h"
#include "core/status.h"
#include "netlist/bitops.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "timing/event_sim.h"
#include "timing/sta.h"

namespace oisa::experiments {

TraceCollector::TraceCollector(const circuits::SynthesizedDesign& design,
                               double periodNs, std::size_t maxLanes,
                               std::size_t streams)
    : design_(design),
      behavioral_(design.config),
      compiled_(netlist::CompiledNetlist::compile(design.netlist)),
      sampler_(timing::makeLaneSampler(compiled_, design.delays, periodNs)),
      periodNs_(periodNs),
      periodPs_(sampler_->periodPs()),
      streams_(streams) {
  // Inputs pack through packStimulusBlock and outputs unpack as W sum
  // words plus the carry-out word, so the netlist must follow the adder
  // port convention.
  const auto width = static_cast<std::size_t>(design.config.width);
  const std::size_t inputs = compiled_->inputNets().size();
  const std::size_t outputs = compiled_->outputNets().size();
  if (inputs != 2 * width + 1 || outputs != width + 1) {
    throw core::StatusError(core::Status::invalidInput(
        "TraceCollector: design '" + design.config.name() +
        "' is off the adder port convention: expected " +
        std::to_string(2 * width + 1) + " inputs and " +
        std::to_string(width + 1) + " outputs, got " +
        std::to_string(inputs) + " and " + std::to_string(outputs)));
  }
  const std::size_t lanes = sampler_->lanes();
  if (streams == 0 || streams > lanes) {
    throw std::invalid_argument("TraceCollector: streams must be in 1.." +
                                std::to_string(lanes));
  }
  const std::size_t cap = std::clamp<std::size_t>(
      maxLanes == 0 ? lanes : maxLanes, streams, lanes);
  maxLanes_ = cap / streams * streams;
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
  // Every chunk must hold at least warm-up + 1 of its stream's cycles so
  // its settle vector exists inside the stream; degenerate runs collapse
  // to one chunk per stream.
  const auto perChunk = static_cast<std::uint64_t>(warmUp_) + 1;
  const std::uint64_t chunks = cycles / streams_ / perChunk;
  return static_cast<std::size_t>(
             std::clamp<std::uint64_t>(chunks, 1, maxLanes_ / streams_)) *
         streams_;
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
  // stimuli[head + t] drives record t of the current window; the
  // head = (lead + 1) * S stimuli before it are carried over from the
  // previous window (at first: the streams' settled reset vectors). The
  // draw sequence is the sequential collector's, so workload state
  // evolves identically.
  const std::size_t s = streams_;
  const auto wu = static_cast<std::size_t>(warmUp_);
  const std::uint64_t capacity = maxLanes_ * kWindowSteps;
  const auto windowCap =
      static_cast<std::size_t>(std::min<std::uint64_t>(cycles, capacity));
  std::vector<Stimulus> stimuli(windowCap + (wu + 1) * s);
  for (std::size_t l = 0; l < s; ++l) stimuli[l] = workload.next();
  if (cycles == 0) return;
  std::vector<predict::TraceRecord> buffer(inPlace != nullptr ? 0
                                                              : windowCap);

  // One span per collect; engine counters are drained once per window,
  // never inside the per-cycle or per-word loops (the instrumentation-cost
  // contract micro_obs gates).
  const obs::ObsSpan span("trace.collect", "sim", "cycles", cycles);
  static obs::Counter& eventsCommitted = obs::counter("sim.events_committed");
  static obs::Counter& laneTransitions = obs::counter("sim.lane_transitions");
  static obs::Counter& collects = obs::counter("sim.collects");
  collects.add();

  std::size_t lead = 0;
  for (std::uint64_t first = 0; first < cycles;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cycles - first, capacity));
    const std::size_t head = (lead + 1) * s;
    const std::span<const Stimulus> stims(stimuli.data(), head + n);
    for (std::size_t t = 0; t < n; ++t) {
      stimuli[head + t] = workload.next();
    }
    const std::span<predict::TraceRecord> records(
        inPlace != nullptr ? inPlace + first : buffer.data(), n);
    for (std::size_t t = 0; t < n; ++t) {
      const Stimulus& stim = stims[head + t];
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
    // The sweep resets the engine: its tallies are this window's alone.
    fillSilver(stims, lead, first, records);
    eventsCommitted.add(sampler_->simulator().eventsProcessed());
    laneTransitions.add(sampler_->simulator().laneTransitionsCommitted());
    if (consume) consume(records);

    // Carry what the next window's head chunks settle and warm up on: per
    // stream, the stimulus ahead of its next cycle and up to wu before
    // that. Only the last window may end mid-cycle, and it carries nothing.
    first += n;
    const auto next =
        static_cast<std::size_t>(std::min<std::uint64_t>(wu, first / s));
    const std::size_t keep = (next + 1) * s;
    if (head + n > keep) {
      std::copy(stims.end() - static_cast<std::ptrdiff_t>(keep), stims.end(),
                stimuli.begin());
    }
    lead = next;
  }
}

void TraceCollector::fillSilver(std::span<const Stimulus> stimuli,
                                std::size_t lead, std::uint64_t first,
                                std::span<predict::TraceRecord> window) {
  const std::size_t kWords = sampler_->wordsPerNet();
  const int width = design_.config.width;
  const auto w = static_cast<std::size_t>(width);
  const std::size_t s = streams_;
  const std::size_t n = window.size();
  const std::size_t lanes = lanesFor(n);
  const std::size_t chunks = lanes / s;
  const auto wu = static_cast<std::size_t>(warmUp_);
  const std::uint64_t done = first / s;  // every stream's cycles so far

  // Stream l's window cycles split into contiguous chunks, sizes differing
  // by at most one; chunk j runs on lane jS + l. A lane replays a settle
  // on its stream's vector ahead of its warm-up window (stimuli[from];
  // its k-th replay stimulus is stimuli[from + kS]), warm(L) discarded
  // cycles, then its recorded range. Lanes with shorter schedules idle
  // (inputs frozen, settled, zero events) at the *start*, so every lane
  // finishes on the final sweep and the per-sweep bookkeeping stays
  // uniform. The same argument covers every lane width and every window
  // boundary: each record's value depends only on its own chunk's replay,
  // so neither the chunk count (64 or 512) nor the windowing shows up in
  // the trace — only in the wall time.
  std::vector<std::size_t> len(lanes);
  std::vector<std::size_t> warm(lanes);  // per-lane warm-up (clamped)
  std::vector<std::size_t> from(lanes);  // `stimuli` index of the settle
  std::vector<std::size_t> to(lanes);    // `window` index of the 1st record
  std::size_t steps = 0;                 // sweeps needed (max over lanes)
  for (std::size_t l = 0; l < s; ++l) {
    const std::size_t own = (n + s - 1 - l) / s;  // stream l's records
    for (std::size_t j = 0, c = 0; j < chunks; ++j) {
      const std::size_t L = j * s + l;
      len[L] = own / chunks + (j < own % chunks ? 1 : 0);
      // Warm-up may reach back across the window boundary, never past the
      // stream's settle vector.
      warm[L] = static_cast<std::size_t>(
          std::min<std::uint64_t>(wu, done + c));
      from[L] = (lead + c - warm[L]) * s + l;
      to[L] = c * s + l;
      c += len[L];
      steps = std::max(steps, warm[L] + len[L]);
    }
  }
  std::vector<std::size_t> idle(lanes);
  for (std::size_t L = 0; L < lanes; ++L) {
    idle[L] = steps - warm[L] - len[L];
  }

  // Per-lane stimulus (held while a lane idles; lanes past `lanes` stay
  // all-zero), packed per 64-lane sub-block into the engine's lane-major
  // input words: sub-word sb of input i carries lanes [64sb, 64sb + 64).
  const std::size_t subBlocks = (lanes + 63) / 64;
  std::vector<Stimulus> cur(subBlocks * 64);
  std::vector<std::uint64_t> subWords(2 * w + 1);
  std::vector<std::uint64_t> inWords((2 * w + 1) * kWords, 0);
  std::vector<std::uint64_t> outWords;
  std::array<std::uint64_t, 64> sumM{};
  const auto assembleInputs = [&] {
    for (std::size_t sb = 0; sb < subBlocks; ++sb) {
      packStimulusBlock(std::span(cur).subspan(sb * 64, 64), width,
                        subWords);
      for (std::size_t i = 0; i < subWords.size(); ++i) {
        inWords[i * kWords + sb] = subWords[i];
      }
    }
  };

  sampler_->simulator().reset();
  for (std::size_t L = 0; L < lanes; ++L) cur[L] = stimuli[from[L]];
  assembleInputs();
  sampler_->initialize(inWords);

  for (std::size_t j = 0; j < steps; ++j) {
    for (std::size_t L = 0; L < lanes; ++L) {
      if (j >= idle[L]) cur[L] = stimuli[from[L] + (1 + j - idle[L]) * s];
    }
    assembleInputs();
    sampler_->stepInto(inWords, outWords);
    // Output words are lane-major: one transpose of the W sum words per
    // sub-block yields each lane's sum in its own row, and the carry-out
    // is read straight from its word (so width 64 fits too).
    for (std::size_t sb = 0; sb < subBlocks; ++sb) {
      for (std::size_t o = 0; o < w; ++o) {
        sumM[o] = outWords[o * kWords + sb];
      }
      std::fill(sumM.begin() + static_cast<std::ptrdiff_t>(w), sumM.end(),
                0);
      netlist::transpose64(sumM);
      const std::uint64_t coutWord = outWords[w * kWords + sb];
      const std::size_t laneEnd = std::min<std::size_t>(lanes - sb * 64, 64);
      for (std::size_t l = 0; l < laneEnd; ++l) {
        const std::size_t L = sb * 64 + l;
        if (j < idle[L] + warm[L]) continue;  // idling or warming up
        predict::TraceRecord& rec =
            window[to[L] + (j - idle[L] - warm[L]) * s];
        rec.silver = sumM[l];
        rec.silverCout = ((coutWord >> l) & 1u) != 0;
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

core::ErrorCombination combineErrors(TraceCollector& collector,
                                     Workload& workload, std::uint64_t cycles,
                                     int width) {
  core::ErrorCombination combo;
  collector.stream(workload, cycles,
                   [&](std::span<const predict::TraceRecord> window) {
                     for (const predict::TraceRecord& rec : window) {
                       combo.add(core::OutputTriple{rec.diamondValue(width),
                                                    rec.goldValue(width),
                                                    rec.silverValue(width)});
                     }
                   });
  return combo;
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
