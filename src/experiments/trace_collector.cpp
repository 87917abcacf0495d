#include "experiments/trace_collector.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/status.h"
#include "netlist/bitops.h"
#include "netlist/compiled_netlist.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::experiments {

namespace {

/// Throws core::StatusError(Internal), naming the design and the operands,
/// unless run record `r`'s gold is the behavioral sum of its operands.
void checkGold(const core::IsaAdder& behavioral,
               const predict::TraceRecord& rec, std::uint64_t r) {
  const core::IsaSum gold = behavioral.add(rec.a, rec.b, rec.carryIn);
  if (gold.sum == rec.gold && gold.carryOut == rec.goldCout) return;
  const auto sum = [](std::uint64_t value, bool carryOut) {
    return std::to_string(value) + " carry " + (carryOut ? "1" : "0");
  };
  throw core::StatusError(core::Status::internal(
      "TraceCollector: design '" + behavioral.config().name() +
      "': the settled netlist disagrees with the behavioral adder at record " +
      std::to_string(r) + " (a = " + std::to_string(rec.a) + ", b = " +
      std::to_string(rec.b) + ", carry-in " + (rec.carryIn ? "1" : "0") +
      "): netlist " + sum(rec.gold, rec.goldCout) + ", behavioral " +
      sum(gold.sum, gold.carryOut)));
}

}  // namespace

TraceCollector::TraceCollector(const circuits::SynthesizedDesign& design,
                               double periodNs, std::size_t maxLanes,
                               std::size_t streams,
                               std::optional<fault::Fault> defect)
    : design_(design),
      behavioral_(design.config),
      periodNs_(periodNs),
      periodPs_(periodNs > 0.0 ? timing::quantizeSpanPs(periodNs) : 0),
      streams_(streams) {
  const auto reject = [&](const std::string& why) {
    throw core::StatusError(core::Status::invalidInput(
        "TraceCollector: design '" + design.config.name() + "' " + why));
  };
  // Inputs pack through packStimuli and outputs unpack as W sum
  // words plus the carry-out word, so the netlist must follow the adder
  // port convention.
  const auto compiled = netlist::CompiledNetlist::compile(design.netlist);
  const auto width = static_cast<std::size_t>(design.config.width);
  const std::size_t inputs = compiled->inputNets().size();
  const std::size_t outputs = compiled->outputNets().size();
  if (inputs != 2 * width + 1 || outputs != width + 1) {
    reject("is off the adder port convention: expected " +
           std::to_string(2 * width + 1) + " inputs and " +
           std::to_string(width + 1) + " outputs, got " +
           std::to_string(inputs) + " and " + std::to_string(outputs));
  }
  if (periodPs_ <= 0) {
    reject("cannot be clocked at " + std::to_string(periodNs) + " ns");
  }
  std::vector<timing::NetClamp> clamps;
  if (defect) {
    if (!defect->isStem()) {
      reject("cannot hold branch fault " + std::to_string(defect->branch) +
             " of net " + std::to_string(defect->net) +
             ": a defect must be a stem fault");
    }
    if (defect->net >= compiled->netCount()) {
      reject("has no net " + std::to_string(defect->net) + " to hold");
    }
    clamps.push_back({defect->net, defect->stuck == fault::StuckAt::SA1});
  }
  {
    obs::ObsSpan span("trace.unroll", "sim");
    unrolled_ =
        timing::unrollSampled(*compiled, design.delays, periodPs_, clamps);
    span.arg("gates", unrolled_.netlist.gateCount());
    span.arg("history", static_cast<std::uint64_t>(unrolled_.history));
  }
  evaluator_ = netlist::makeBatchEvaluator(
      netlist::CompiledNetlist::compile(unrolled_.netlist));
  const std::size_t lanes = evaluator_->lanes();
  if (streams == 0 || streams > lanes) {
    throw std::invalid_argument("TraceCollector: streams must be in 1.." +
                                std::to_string(lanes));
  }
  const std::size_t cap = std::clamp<std::size_t>(
      maxLanes == 0 ? lanes : maxLanes, streams, lanes);
  maxLanes_ = cap / streams * streams;
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
  // stimuli[head + t] drives record t of the current window, and the
  // head = (k - 1)S stimuli before it are its records' history: at first
  // each stream's settle vector, repeated; later the previous window's
  // tail. The draw sequence is the sequential collector's, so workload
  // state evolves identically.
  const std::size_t s = streams_;
  std::vector<Stimulus> settle(s);
  workload.fill(settle);
  if (cycles == 0) return;
  const std::size_t head = static_cast<std::size_t>(historyDepth() - 1) * s;
  const std::uint64_t capacity = maxLanes_ * kWindowSteps;
  const auto windowCap =
      static_cast<std::size_t>(std::min<std::uint64_t>(cycles, capacity));
  std::vector<Stimulus> stimuli(head + windowCap);
  for (std::size_t p = 0; p < head; ++p) stimuli[p] = settle[p % s];
  std::vector<predict::TraceRecord> buffer(inPlace != nullptr ? 0
                                                              : windowCap);

  // One span per collect; the counters are bumped once per window, never
  // inside the per-record or per-word loops (the instrumentation-cost
  // contract micro_obs gates).
  const obs::ObsSpan span("trace.collect", "sim", "cycles", cycles);
  static obs::Counter& recordsSampled = obs::counter("sim.records_sampled");
  static obs::Counter& goldChecks = obs::counter("sim.gold_checks");
  static obs::Counter& collects = obs::counter("sim.collects");
  collects.add();

  // Every window but the last holds a multiple of 64 records, so window
  // record t is run record first + t and t % 64 == 0 picks the run's
  // records r % 64 == 0.
  static_assert(kWindowSteps % 64 == 0);
  for (std::uint64_t first = 0; first < cycles;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cycles - first, capacity));
    workload.fill(std::span(stimuli).subspan(head, n));
    const std::span<predict::TraceRecord> records(
        inPlace != nullptr ? inPlace + first : buffer.data(), n);
    for (std::size_t t = 0; t < n; ++t) {
      const Stimulus& stim = stimuli[head + t];
      predict::TraceRecord& rec = records[t];
      rec.a = stim.a;
      rec.b = stim.b;
      rec.carryIn = stim.carryIn;
      const core::IsaSum diamond =
          behavioral_.exactAdd(stim.a, stim.b, stim.carryIn);
      rec.diamond = diamond.sum;
      rec.diamondCout = diamond.carryOut;
    }
    sampleWindow(std::span<const Stimulus>(stimuli.data(), head + n), records);
    for (std::size_t t = 0; t < n; t += 64) {
      checkGold(behavioral_, records[t], first + t);
    }
    recordsSampled.add(n);
    goldChecks.add((n + 63) / 64);
    if (consume) consume(records);

    // The window's last (k - 1)S stimuli are the next window's history.
    // Only the last window may end mid-cycle, and it carries nothing.
    first += n;
    std::copy(stimuli.begin() + static_cast<std::ptrdiff_t>(n),
              stimuli.begin() + static_cast<std::ptrdiff_t>(n + head),
              stimuli.begin());
  }
}

void TraceCollector::sampleWindow(
    std::span<const Stimulus> stimuli,
    std::span<predict::TraceRecord> window) const {
  const int width = design_.config.width;
  const auto w = static_cast<std::size_t>(width);
  const std::size_t ports = 2 * w + 1;
  const std::size_t n = window.size();
  const std::size_t head = stimuli.size() - n;
  const std::size_t lanes = evaluator_->lanes();
  const std::size_t kW = evaluator_->wordsPerNet();
  const auto planes = static_cast<std::size_t>(historyDepth());

  // Each input port's bit stream over the window's stimuli: bit p of word
  // p / 64 is stimulus p's value of that port. Every stimulus is packed
  // once; the history planes are shifted reads of the same streams. The
  // trailing words let a sweep's partly filled last block read past the
  // end (its spare lanes are never unpacked).
  const std::size_t streamWords = (stimuli.size() + 63) / 64 + kW + 1;
  std::vector<std::uint64_t> bits(ports * streamWords, 0);
  packStimuli(stimuli, width, bits, streamWords);

  // One sweep per `lanes` records: lane L of plane j is the stimulus jS
  // records before record b + L, i.e. stream position head + b + L - jS.
  std::vector<std::uint64_t> inWords(planes * ports * kW);
  std::vector<std::uint64_t> values;
  const auto outputNets = evaluator_->compiled()->outputNets();
  // Output words are lane-major, silver's W + 1 first, then gold's. Up to
  // 32 bits both sums share one transpose (silver in rows 0..W-1, gold in
  // rows 32..32+W-1, as packStimuli packs a and b); wider sums take
  // one each. Rows past the sums are never cleared: the transpose moves
  // them to bits the width mask drops. Carry-outs are read straight from
  // their words, so width 64 fits too.
  const bool shared = w <= 32;
  const std::uint64_t mask = behavioral_.mask();
  std::array<std::uint64_t, 64> silverM{};
  std::array<std::uint64_t, 64> goldM{};
  std::uint64_t* goldRows = shared ? silverM.data() + 32 : goldM.data();
  for (std::size_t b = 0; b < n; b += lanes) {
    for (std::size_t j = 0; j < planes; ++j) {
      const std::size_t at = head + b - j * streams_;
      const std::size_t shift = at % 64;
      for (std::size_t i = 0; i < ports; ++i) {
        const std::uint64_t* src = bits.data() + i * streamWords + at / 64;
        std::uint64_t* dst = inWords.data() + (j * ports + i) * kW;
        for (std::size_t x = 0; x < kW; ++x) {
          dst[x] = shift == 0
                       ? src[x]
                       : (src[x] >> shift) | (src[x + 1] << (64 - shift));
        }
      }
    }
    evaluator_->evaluateInto(inWords, values);
    const std::size_t count = std::min(lanes, n - b);
    for (std::size_t sb = 0; sb * 64 < count; ++sb) {
      const auto word = [&](std::size_t o) {
        return values[std::size_t{outputNets[o]} * kW + sb];
      };
      for (std::size_t o = 0; o < w; ++o) {
        silverM[o] = word(o);
        goldRows[o] = word(w + 1 + o);
      }
      netlist::transpose64(silverM);
      if (!shared) netlist::transpose64(goldM);
      const std::uint64_t silverCout = word(w);
      const std::uint64_t goldCout = word(2 * w + 1);
      const std::size_t end = std::min<std::size_t>(count - sb * 64, 64);
      for (std::size_t l = 0; l < end; ++l) {
        predict::TraceRecord& rec = window[b + sb * 64 + l];
        rec.silver = silverM[l] & mask;
        rec.gold = (shared ? silverM[l] >> 32 : goldM[l]) & mask;
        rec.silverCout = ((silverCout >> l) & 1u) != 0;
        rec.goldCout = ((goldCout >> l) & 1u) != 0;
      }
    }
  }
}

core::ErrorCombination combineErrors(TraceCollector& collector,
                                     Workload& workload, std::uint64_t cycles,
                                     int width) {
  core::ErrorCombination combo;
  collector.stream(
      workload, cycles, [&](std::span<const predict::TraceRecord> window) {
        // A fixed stack chunk: a window-sized triple buffer per cell would
        // grow the campaign's peak RSS.
        std::array<core::OutputTriple, 256> chunk;
        for (std::size_t first = 0; first < window.size();
             first += chunk.size()) {
          const std::size_t n = std::min(chunk.size(), window.size() - first);
          for (std::size_t i = 0; i < n; ++i) {
            const predict::TraceRecord& rec = window[first + i];
            chunk[i] = {rec.diamondValue(width), rec.goldValue(width),
                        rec.silverValue(width)};
          }
          combo.add(std::span<const core::OutputTriple>(chunk.data(), n));
        }
      });
  return combo;
}

}  // namespace oisa::experiments
