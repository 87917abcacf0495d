#include "obs/metrics.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "core/file_publish.h"

namespace oisa::obs {

namespace detail {

std::atomic<bool> gMetricsEnabled{true};

}  // namespace detail

namespace {

// One map per kind. std::map nodes are stable, so handles returned from
// counter()/histogram() stay valid for the process lifetime.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  // Leaked on purpose: metric handles are cached in function-local
  // statics all over the codebase and may be touched during shutdown.
  static Registry* r = new Registry();
  return *r;
}

template <typename T>
T& intern(std::map<std::string, std::unique_ptr<T>, std::less<>>& m,
          std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& counter(std::string_view name) {
  return intern(registry().counters, name);
}

Histogram& histogram(std::string_view name) {
  return intern(registry().histograms, name);
}

void setMetricsEnabled(bool enabled) noexcept {
  detail::gMetricsEnabled.store(enabled, std::memory_order_relaxed);
}

MetricsSnapshot snapshotMetrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsSnapshot snap;
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, h] : r.histograms) {
    MetricsSnapshot::HistogramSample s;
    s.count = h->count();
    s.sum = h->sum();
    s.max = h->max();
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n == 0) continue;
      const std::uint64_t lower = i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
      s.buckets.emplace_back(lower, n);
    }
    snap.histograms.emplace(name, std::move(s));
  }
  return snap;
}

void resetMetricsForTest() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->resetForTest();
  for (auto& [name, h] : r.histograms) h->resetForTest();
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

namespace {

void appendKey(std::string& out, std::string_view name) {
  out += '"';
  appendJsonEscaped(out, name);
  out += "\": ";
}

template <typename Map, typename Emit>
void appendObject(std::string& out, std::string_view key, const Map& m,
                  Emit emit) {
  appendKey(out, key);
  out += "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\n    ";
    appendKey(out, name);
    emit(out, value);
  }
  out += m.empty() ? "}" : "\n  }";
}

}  // namespace

std::string metricsJson(const MetricsSnapshot& snap,
                        const std::map<std::string, std::string>& meta) {
  std::string out = "{\n  \"schema\": \"oisa-metrics-v1\",\n  ";
  appendObject(out, "meta", meta, [](std::string& o, const std::string& v) {
    o += '"';
    appendJsonEscaped(o, v);
    o += '"';
  });
  out += ",\n  ";
  appendObject(out, "counters", snap.counters,
               [](std::string& o, std::uint64_t v) { o += std::to_string(v); });
  out += ",\n  ";
  appendObject(
      out, "histograms", snap.histograms,
      [](std::string& o, const MetricsSnapshot::HistogramSample& h) {
        o += "{\"count\": " + std::to_string(h.count) +
             ", \"sum\": " + std::to_string(h.sum) +
             ", \"max\": " + std::to_string(h.max) + ", \"buckets\": {";
        bool first = true;
        for (const auto& [lower, n] : h.buckets) {
          if (!first) o += ", ";
          first = false;
          o += '"' + std::to_string(lower) + "\": " + std::to_string(n);
        }
        o += "}}";
      });
  out += "\n}\n";
  return out;
}

core::Status writeMetricsJson(const std::string& path,
                              const std::map<std::string, std::string>& meta) {
  const std::string doc = metricsJson(snapshotMetrics(), meta);
  return core::writeFile(path, doc);
}

}  // namespace oisa::obs
