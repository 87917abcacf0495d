// oisa_experiments: gate-level trace collection.
//
// The paper's "Data Collection" step: drive the synthesized design with a
// workload through the overclocked event-driven simulator, recording per
// cycle the exact sum (y_diamond), the behavioral/RTL sum (y_gold) and the
// gate-level sampled sum (y_silver).
//
// TraceCollector is the lane-parallel engine for that step, and one
// windowed loop drives every run — the figure pipelines and the fault
// scan's defect runs alike. It replays S interleaved streams of one draw
// sequence (S = 1 for the figures, 64 for the fault scan): draw kS + l is
// stream l's k-th stimulus, k = 0 its settle vector, and record r is draw
// S + r, cycle r / S of stream r mod S. A window holds at most
// lanes x kWindowSteps records (lanes = the runtime-selected lane width,
// 64/256/512 — see netlist/lane_width.h — or a smaller cap, a multiple of
// S). Per window the loop draws the window's stimuli, computes diamond and
// gold, splits each stream's window cycles into contiguous chunks, replays
// chunk j of stream l on lane jS + l of one timed sweep over the shared
// compiled netlist, then hands the window to its consumer in record order
// and reuses the buffers for the next. A run therefore holds one window,
// never the whole stream: memory is flat in the cycle count.
//
// The replay is **bit-exact** versus the sequential scalar collector (per
// stream) at any lane count, any width and across every window boundary:
// a latched output depends only on the input vectors applied within one
// maximum-path-delay window before its edge, so seeding each chunk with a
// settle on its stream's stimulus just before its window (plus
// `warmUpCycles()` replayed-but-discarded cycles when the overclock is
// deeper than half the critical path) reproduces the mid-stream simulator
// state exactly. The last min(warmUpCycles(), c) + 1 stimuli of every
// stream (c = the stream cycles done) carry into the next window, so a
// chunk at a window's head settles and warms up exactly as a mid-window
// chunk does. A net force clamped through simulator() survives the
// per-window reset, so a defective design replays just as exactly.
// tests/lane_sim_test.cpp asserts record-for-record equality against the
// sequential reference collector (collectTraceScalar in oisa_reference,
// one call per stream) on runs spanning several windows, tests/lane_width_test.cpp re-asserts it
// at every available width, and bench/micro_lane_sim.cpp re-proves it
// before gating the speedup.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "circuits/synthesis.h"
#include "core/error_model.h"
#include "core/isa_adder.h"
#include "experiments/workload.h"
#include "netlist/compiled_netlist.h"
#include "predict/features.h"
#include "predict/trace.h"
#include "timing/lane_dispatch.h"

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

/// Lane-parallel timed trace collector for one (design, period) point.
///
/// Construct once per point and reuse across collects (train/test streams,
/// repeated sweeps): the netlist is compiled once and the lane simulator is
/// recycled. Every window resets the simulator, so repeated runs with
/// identically seeded workloads are bit-identical.
class TraceCollector {
 public:
  /// Timed sweeps per window: a window holds lanes x kWindowSteps records.
  static constexpr std::size_t kWindowSteps = 64;

  /// Receives one window of records, in record order.
  using WindowConsumer =
      std::function<void(std::span<const predict::TraceRecord>)>;

  /// `periodNs` — the (possibly overclocked) clock period. `maxLanes`
  /// caps the lanes per sweep, rounded down to a multiple of `streams`
  /// (at least `streams`; 0 means "the full selected lane width"; results
  /// are bit-identical at any value). `streams` (1 ..= the lane width)
  /// interleaves that many independent circuits over one draw sequence.
  /// Throws core::StatusError(InvalidInput) when the design's netlist is
  /// off the adder port convention (a0..aW-1, b0..bW-1, cin in; W sum
  /// bits and the carry-out out).
  TraceCollector(const circuits::SynthesizedDesign& design, double periodNs,
                 std::size_t maxLanes = 0, std::size_t streams = 1);

  /// Runs `cycles` cycles of `workload` through the design and returns the
  /// per-cycle trace. The first `streams` stimuli are the streams' settled
  /// reset vectors (not recorded). At one stream, bit-identical to
  /// collectTraceScalar() for the same workload state at any lane count;
  /// stream l's records equal collectTraceScalar() over draws l, S + l,
  /// 2S + l, ... Each window is filled in place in the returned trace.
  [[nodiscard]] predict::Trace collect(Workload& workload,
                                       std::uint64_t cycles);

  /// The records collect() would return, handed to `consume` one window at
  /// a time in a buffer the next window reuses: memory stays O(window)
  /// however long the run.
  void stream(Workload& workload, std::uint64_t cycles,
              const WindowConsumer& consume);

  /// collect() plus the packed bit-column emission: the collector owns
  /// each trace's single packing pass (the 64-row block shift-and-
  /// transpose of FeatureExtractor::packTrace, run once here over the
  /// collected records), so downstream consumers (BitLevelPredictor::
  /// fit/evaluate) take the packed blocks directly and never re-pack.
  [[nodiscard]] CollectedTrace collectPacked(
      Workload& workload, std::uint64_t cycles,
      const predict::FeatureExtractor& extractor);

  [[nodiscard]] double periodNs() const noexcept { return periodNs_; }
  [[nodiscard]] timing::TimePs periodPs() const noexcept { return periodPs_; }

  /// Cycles replayed (and discarded) ahead of each chunk so the chunk's
  /// first recorded cycle sees the exact mid-stream simulator state: the
  /// smallest W with (W + 2) * period > critical path. 0 for every paper
  /// design point (critical path < 2 periods at 5-15% CPR).
  [[nodiscard]] int warmUpCycles() const noexcept { return warmUp_; }

  /// Lanes a window of `cycles` records uses: a multiple of the stream
  /// count (every stream gets as many chunks), and each chunk covers its
  /// warm-up.
  [[nodiscard]] std::size_t lanesFor(std::uint64_t cycles) const noexcept;

  /// The lane engine, e.g. for fault::injectStuckAt: net forces survive
  /// the reset every window starts with.
  [[nodiscard]] timing::AnyLaneSimulator& simulator() noexcept {
    return sampler_->simulator();
  }

 private:
  /// The windowed loop. Window records land at `inPlace + r0` when
  /// `inPlace` is set, else in a reused buffer; each finished window then
  /// goes to `consume` when it is set.
  void run(Workload& workload, std::uint64_t cycles,
           predict::TraceRecord* inPlace, const WindowConsumer& consume);

  /// Silver fill of one window whose first record is record `first` of
  /// the run: `stimuli[(lead + 1) * S + t]` drives window record t, and the
  /// (lead + 1) * S stimuli before it are the carried ones.
  void fillSilver(std::span<const Stimulus> stimuli, std::size_t lead,
                  std::uint64_t first, std::span<predict::TraceRecord> window);

  const circuits::SynthesizedDesign& design_;
  core::IsaAdder behavioral_;
  std::shared_ptr<const netlist::CompiledNetlist> compiled_;
  std::unique_ptr<timing::AnyLaneSampler> sampler_;
  double periodNs_;
  timing::TimePs periodPs_;
  int warmUp_ = 0;
  std::size_t streams_;
  std::size_t maxLanes_;
};

/// Convenience wrapper: one lane-parallel collection over a fresh
/// TraceCollector. All figure/table pipelines route through this.
[[nodiscard]] predict::Trace collectTrace(
    const circuits::SynthesizedDesign& design, double periodNs,
    Workload& workload, std::uint64_t cycles);

/// Streams `cycles` records through `collector` and folds each, in record
/// (= draw) order, into one ErrorCombination of the `width`-bit design's
/// full output values: runErrorCombination's and the fault scan's E_joint.
[[nodiscard]] core::ErrorCombination combineErrors(TraceCollector& collector,
                                                   Workload& workload,
                                                   std::uint64_t cycles,
                                                   int width);

}  // namespace oisa::experiments
