// oisa_obs: span tracing.
//
// RAII `ObsSpan` scopes record wall-time intervals into a bounded buffer
// and serialize as Chrome trace-event JSON — the `{"traceEvents": [...]}`
// format chrome://tracing and Perfetto open directly
// (https://ui.perfetto.dev, drag the file in).
//
// Hot-path contract:
//   * Tracing is off by default. A disarmed ObsSpan costs one relaxed
//     atomic load and a branch — cheap enough to leave in per-cell and
//     per-collect code permanently.
//   * Armed, the span captures a steady_clock timestamp at open and
//     appends one fixed-size POD event at close. Spans open only at layer
//     boundaries, never inside word loops, so the traffic is small: at
//     default sizes fig9_error_combination closes 109 spans, fig7_abper
//     145 and fault_coverage 241. A session is therefore one event buffer
//     reserved at startTracing and guarded by the session mutex: a span
//     close holds that mutex for one append, and when the buffer is full
//     the event is counted dropped and the worker moves on. The buffer
//     never grows, so a close never allocates. (Counters and histograms
//     never take a lock.)
//   * A span carries up to four numeric arguments; any beyond that is
//     counted, not silently lost, and the count is reported beside the
//     dropped events.
//   * Every thread keeps a thread-local nesting depth; events record it
//     so a flame view reconstructs even across dropped events.
//
// Ordering note: events drain in append order, which is completion
// order, not start order; trace viewers sort by `ts` themselves.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/status.h"

namespace oisa::obs {

/// Fixed-size POD trace record of one complete span. `name` is copied
/// (truncated) so spans can label themselves with stack-built strings;
/// `cat` and the argument keys must be string literals (or otherwise
/// outlive the tracing session). Trivially copyable, so an append and a
/// drain copy bytes.
struct TraceEvent {
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kArgCapacity = 4;
  char name[kNameCapacity];
  const char* cat;
  std::uint64_t tsUs;   ///< span start, µs since session start
  std::uint64_t durUs;  ///< span duration in µs
  std::uint32_t tid;    ///< dense per-thread id (order of first span)
  std::uint32_t depth;  ///< nesting depth at open (0 = top level)
  using ArgKeys = std::array<const char*, kArgCapacity>;
  using ArgValues = std::array<std::uint64_t, kArgCapacity>;
  /// Numeric arguments; a null key marks an unused slot.
  ArgKeys argKeys;
  ArgValues argValues;
};

/// Arms tracing with a fresh buffer of `capacity` events (rounded up to a
/// power of two, minimum 8) and restarts the session clock. Idempotent
/// per session: a second call replaces the buffer (any undrained events
/// are discarded).
void startTracing(std::size_t capacity = std::size_t{1} << 16);

/// Disarms tracing and frees the session's buffer. A span armed before
/// the stop that closes after it records nothing. (Primarily test
/// isolation.)
void stopTracing();

/// Events the current session dropped on a full buffer (0 when
/// disarmed).
[[nodiscard]] std::uint64_t traceDropped() noexcept;

/// Drains the events recorded since the last drain (at most the buffer's
/// capacity) into a Chrome trace-event JSON document, one event per line;
/// the buffer keeps its reserved memory for the events still to come:
/// {"traceEvents":[{name,cat,ph:"X",ts,dur,pid,tid,args:{depth,...}}...],
///  "otherData":{"schema":"oisa-trace-v1","dropped":N,"dropped_args":A,
///               "drained":D}}.
/// `dropped_args` counts the arguments spans were given past their
/// TraceEvent::kArgCapacity slots this session.
[[nodiscard]] std::string drainTraceJson();

/// drainTraceJson() + write to `path`.
[[nodiscard]] core::Status writeTraceJson(const std::string& path);

/// RAII traced scope. Constructed disarmed when tracing is off.
class ObsSpan {
 public:
  ObsSpan(const char* name, const char* cat) noexcept
      : ObsSpan(name, cat, nullptr, 0) {}

  /// `argKey` (a literal) attaches one numeric argument to the event,
  /// e.g. ObsSpan("cell", "grid", "cell", cellIndex).
  ObsSpan(const char* name, const char* cat, const char* argKey,
          std::uint64_t argValue) noexcept;

  /// Attaches a numeric argument known only once the scope has done its
  /// work, e.g. the size of what it built. `key` must be a literal; a span
  /// carries at most TraceEvent::kArgCapacity arguments and counts any
  /// beyond that as dropped (drainTraceJson's `dropped_args`).
  void arg(const char* key, std::uint64_t value) noexcept;

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  ~ObsSpan();

 private:
  std::uint64_t startUs_ = 0;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  TraceEvent::ArgKeys argKeys_{};
  TraceEvent::ArgValues argValues_{};
  std::uint32_t depth_ = 0;
  bool armed_ = false;
};

}  // namespace oisa::obs
