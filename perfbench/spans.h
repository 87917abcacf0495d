// Span accounting for the benchmark: drains the obs span ring, links each
// span to the span that encloses it on its thread, and reduces the result
// to per-name totals and self times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One completed span as the ring recorded it (µs resolution).
struct Span {
  std::string name;
  std::uint64_t tsUs = 0;
  std::uint64_t durUs = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t childUs = 0;  ///< time covered by direct children
  [[nodiscard]] double seconds() const { return static_cast<double>(durUs) * 1e-6; }
  [[nodiscard]] double selfSeconds() const {
    return static_cast<double>(durUs - std::min(childUs, durUs)) * 1e-6;
  }
};

/// Drains every span recorded since the last drain and fills childUs.
[[nodiscard]] std::vector<Span> drainSpans();

/// Sum of durations (s) of spans named `name`.
[[nodiscard]] double totalSeconds(const std::vector<Span>& spans,
                                  const std::string& name);

/// Durations (s) of spans named `name`, in drain order.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const std::string& name);

/// One row of the attribution table.
struct AttributionRow {
  std::string name;
  std::uint64_t count = 0;
  double totalS = 0.0;
  double selfS = 0.0;
};

/// One row per span name, largest total first.
[[nodiscard]] std::vector<AttributionRow> attribute(
    const std::vector<Span>& spans);

}  // namespace perfbench
