// oisa_experiments: gate-level trace collection.
//
// The paper's "Data Collection" step: drive the synthesized design with a
// workload at an overclocked period, recording per cycle the exact sum
// (y_diamond), the sum the correctly clocked circuit computes (y_gold) and
// the sum the gate-level netlist latches at each edge (y_silver).
//
// TraceCollector is the engine for that step, and one windowed loop
// drives every run — the figure pipelines and the fault scan's defect runs
// alike. It replays S interleaved streams of one draw sequence (S = 1 for
// the figures, 64 for the fault scan): draw kS + l is stream l's k-th
// stimulus, k = 0 its settle vector, and record r is draw S + r, cycle
// r / S of stream r mod S. A window holds at most lanes x kWindowSteps
// records (lanes = the runtime-selected lane width, 64/256/512 — see
// netlist/lane_width.h — or a smaller cap, a multiple of S). Per window
// the loop draws the window's stimuli, computes diamond (a word add),
// samples silver and gold, checks gold, then hands the window to its
// consumer in record order and reuses the buffers for the next. A run
// therefore holds one window, never the whole stream: memory is flat in
// the cycle count.
//
// Silver and gold are event-free. At construction the collector unrolls
// the design at its period into the sampled-output netlist (timing/
// unroll.h): a combinational function of a record's stimulus and the
// k - 1 before it on its stream, records r - S, ..., r - (k - 1)S, that
// also carries the outputs settled under the record's own stimulus with
// no defect held. Those are gold, so one sweep yields both. The
// behavioral adder (core::IsaAdder) recomputes gold on every record
// r % 64 == 0 of every run; a mismatch is core::StatusError(Internal)
// naming the design and the operands. Silver's exactness rests on
// the transport-delay recursion unroll.h derives, not on any replay: there
// is no settle, warm-up or chunking. Per window every input's bit stream
// is packed once; each history plane is that stream shifted by jS lanes,
// and one batch-evaluator sweep samples `lanes` records. The window's last
// (k - 1)S stimuli carry into the next as its history, and each stream's
// settle vector stands in for history before its first record. A stem
// defect passed at construction is a constant on every sampled copy of
// its net and never reaches gold. tests/lane_sim_test.cpp and
// tests/lane_width_test.cpp assert record-for-record equality against the
// sequential reference collector (collectTraceScalar in oisa_reference,
// one call per stream) across windows and at every width,
// tests/unroll_test.cpp asserts the unrolled netlist against the lane
// wheel engine (sampled outputs) and the zero-delay evaluator (settled
// outputs), and bench/micro_lane_sim.cpp re-proves it before gating the
// speedup.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/isa_adder.h"
#include "experiments/workload.h"
#include "fault/fault_model.h"
#include "netlist/lane_width.h"
#include "predict/features.h"
#include "predict/trace.h"
#include "timing/delay_annotation.h"
#include "timing/unroll.h"

namespace oisa::experiments {

/// Clock-period reduction (CPR) in percent of the sign-off period.
[[nodiscard]] constexpr double overclockedPeriodNs(double signOffNs,
                                                   double cprPercent) noexcept {
  return signOffNs * (1.0 - cprPercent / 100.0);
}

/// A collected trace together with its packed bit-column form (the
/// ml::PackedView substrate the predictor bank trains and evaluates on).
struct CollectedTrace {
  predict::Trace trace;
  predict::PackedTraceFeatures packed;
};

/// Timed trace collector for one (design, period) point.
///
/// Construct once per point and reuse across collects (train/test streams,
/// repeated sweeps): the design is unrolled once, and repeated runs with
/// identically seeded workloads are bit-identical. Holds the addresses of
/// its own netlist, so it is neither copied nor moved.
class TraceCollector {
 public:
  /// Sweeps per window: a window holds lanes x kWindowSteps records.
  static constexpr std::size_t kWindowSteps = 64;

  /// Receives one window of records, in record order.
  using WindowConsumer =
      std::function<void(std::span<const predict::TraceRecord>)>;

  /// `periodNs` — the (possibly overclocked) clock period. `maxLanes`
  /// caps a window at maxLanes x kWindowSteps records, rounded down to a
  /// multiple of `streams` (at least `streams`; 0 means "the full selected
  /// lane width"; results are bit-identical at any value). `streams`
  /// (1 ..= the lane width) interleaves that many independent circuits
  /// over one draw sequence. `defect`, a stem stuck-at fault of the
  /// design's netlist, holds its net at the stuck value in every cycle.
  /// Throws core::StatusError(InvalidInput), naming the design, when its
  /// netlist is off the adder port convention (a0..aW-1, b0..bW-1, cin in;
  /// W sum bits and the carry-out out) or has a combinational cycle, when
  /// the period is not positive, or when `defect` is a branch fault or
  /// names a net the netlist does not have.
  TraceCollector(const circuits::SynthesizedDesign& design, double periodNs,
                 std::size_t maxLanes = 0, std::size_t streams = 1,
                 std::optional<fault::Fault> defect = std::nullopt);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Runs `cycles` cycles of `workload` through the design and returns the
  /// per-cycle trace. The first `streams` stimuli are the streams' settled
  /// reset vectors (not recorded). At one stream, bit-identical to
  /// collectTraceScalar() for the same workload state at any lane count;
  /// stream l's records equal collectTraceScalar() over draws l, S + l,
  /// 2S + l, ... Each window is filled in place in the returned trace.
  /// Throws core::StatusError(Internal), naming the design and the
  /// operands, when a checked record's gold is not the behavioral sum.
  [[nodiscard]] predict::Trace collect(Workload& workload,
                                       std::uint64_t cycles);

  /// The records collect() would return, handed to `consume` one window at
  /// a time in a buffer the next window reuses: memory stays O(window)
  /// however long the run.
  void stream(Workload& workload, std::uint64_t cycles,
              const WindowConsumer& consume);

  [[nodiscard]] double periodNs() const noexcept { return periodNs_; }
  [[nodiscard]] timing::TimePs periodPs() const noexcept { return periodPs_; }

  /// k: a record's sampled outputs depend on its own stimulus and the
  /// k - 1 before it on its stream. 1 or 2 at every paper design point
  /// (critical path < 2 periods at 5-15% CPR).
  [[nodiscard]] int historyDepth() const noexcept {
    return unrolled_.history;
  }

  /// Gates of the unrolled netlist (sampled and settled outputs).
  [[nodiscard]] std::size_t unrolledGates() const noexcept {
    return unrolled_.netlist.gateCount();
  }

 private:
  /// The windowed loop. Window records land at `inPlace + r0` when
  /// `inPlace` is set, else in a reused buffer; each finished window then
  /// goes to `consume` when it is set.
  void run(Workload& workload, std::uint64_t cycles,
           predict::TraceRecord* inPlace, const WindowConsumer& consume);

  /// Silver and gold of one window: the last window.size() of `stimuli`
  /// drive its records, and the (k - 1)S before them are their history.
  void sampleWindow(std::span<const Stimulus> stimuli,
                    std::span<predict::TraceRecord> window) const;

  const circuits::SynthesizedDesign& design_;
  /// Diamond of every record, and the check of gold on every 64th.
  core::IsaAdder behavioral_;
  double periodNs_;
  timing::TimePs periodPs_;
  std::size_t streams_;
  std::size_t maxLanes_ = 0;
  timing::UnrolledSampler unrolled_;
  std::unique_ptr<netlist::AnyBatchEvaluator> evaluator_;
};

/// Streams `cycles` records through `collector` and folds each, in record
/// (= draw) order, into one ErrorCombination of the `width`-bit design's
/// full output values: runErrorCombination's and the fault scan's E_joint.
/// Bit-identical to one ErrorCombination::add per record.
[[nodiscard]] core::ErrorCombination combineErrors(TraceCollector& collector,
                                                   Workload& workload,
                                                   std::uint64_t cycles,
                                                   int width);

}  // namespace oisa::experiments
