// oisa_obs: lock-free metrics registry.
//
// The always-on counting substrate every long-lived run stands on:
// handles registered once by static name, one relaxed atomic add on the
// hot path, aggregation deferred to snapshot time.
//
// Design:
//   * `Counter` / `Histogram` handles are interned by name in a
//     process-global registry and never move or die, so call sites cache
//     the reference in a function-local static and pay one init-guard
//     check plus one relaxed atomic add per update.
//   * A `Counter` is one relaxed atomic. Every counter in src/ adds once
//     per campaign, cell, collect, window, fit, packed trace, evaluation,
//     checkpoint save/load/commit or served block of at most 64 records,
//     never inside a word loop, so concurrent adds rarely meet on its
//     cache line. Counters and histograms never take a lock.
//   * The whole registry sits behind one process-global enable flag
//     (`setMetricsEnabled`). Disabled, every update is a single relaxed
//     load and a branch — the "no sink attached" cost that bench/micro_obs
//     gates at <= 3% on the fig7 cell path.
//   * Histograms bucket by log2 (bucket i counts values in [2^(i-1), 2^i)
//     with bucket 0 for zero), plus exact total count/sum and a CAS max —
//     enough for latency distributions without per-record allocation.
//
// Telemetry is side-effect-only by construction: nothing in this layer
// feeds back into simulation state, so every CSV stays byte-identical
// with metrics on or off (CI cross-check #11).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace oisa::obs {

namespace detail {
/// Process-global kill switch, checked (relaxed) by every update.
extern std::atomic<bool> gMetricsEnabled;
}  // namespace detail

/// Log2 histogram buckets: bucket 0 holds zeros, bucket i (1..64) holds
/// values with bit_width i, i.e. [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Monotonic event counter. add() is wait-free: one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!detail::gMetricsEnabled.load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exact whenever no add() is in flight.
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void resetForTest() noexcept {
    value_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed value distribution with exact count/sum and a max.
/// record() is lock-free: three relaxed adds plus a CAS max loop that
/// only spins while the recorded value is a new maximum.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    if (!detail::gMetricsEnabled.load(std::memory_order_relaxed)) return;
    const std::size_t bucket = static_cast<std::size_t>(
        v == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(v)));
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void resetForTest() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One aggregated reading of the whole registry.
struct MetricsSnapshot {
  struct HistogramSample {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    /// Non-empty buckets only: (bucket lower bound, count).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSample> histograms;
};

/// Interns `name` (cold path, mutex) and returns the stable handle. Call
/// sites cache it: `static obs::Counter& c = obs::counter("grid.retries");`
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Master switch. Off (the default is ON) every update degenerates to a
/// relaxed load + branch; micro_obs measures exactly this "stripped" mode.
void setMetricsEnabled(bool enabled) noexcept;

/// Aggregates every registered metric (registry order = name order).
[[nodiscard]] MetricsSnapshot snapshotMetrics();

/// Zeroes every registered metric (handles stay valid), for test
/// isolation.
void resetMetricsForTest();

/// Serializes `snap` as the oisa-metrics-v1 JSON document. `meta` (may be
/// empty) lands under "meta".
[[nodiscard]] std::string metricsJson(
    const MetricsSnapshot& snap,
    const std::map<std::string, std::string>& meta);

/// snapshotMetrics() + metricsJson() + write to `path`.
[[nodiscard]] core::Status writeMetricsJson(
    const std::string& path, const std::map<std::string, std::string>& meta);

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Shared by the metrics and trace writers and BenchJson.
void appendJsonEscaped(std::string& out, std::string_view s);

}  // namespace oisa::obs
