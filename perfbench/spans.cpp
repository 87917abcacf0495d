#include "spans.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>

#include "obs/span.h"

namespace perfbench {

namespace {

/// Reads the unsigned number after `key` in `line`; false when absent.
bool numberAfter(const std::string& line, const char* key,
                 std::uint64_t& out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  out = std::strtoull(line.c_str() + at + std::char_traits<char>::length(key),
                      nullptr, 10);
  return true;
}

/// Parses one event line of obs::drainTraceJson(). Only complete ('X')
/// spans carry a duration; instants are skipped.
bool parseEvent(const std::string& line, Span& span) {
  static constexpr char kName[] = "{\"name\": \"";
  if (line.rfind(kName, 0) != 0) return false;
  const std::size_t begin = sizeof(kName) - 1;
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  span.name = line.substr(begin, end - begin);
  std::uint64_t tid = 0;
  std::uint64_t depth = 0;
  if (!numberAfter(line, "\"ts\": ", span.tsUs) ||
      !numberAfter(line, "\"dur\": ", span.durUs) ||
      !numberAfter(line, "\"tid\": ", tid) ||
      !numberAfter(line, "\"depth\": ", depth)) {
    return false;
  }
  span.tid = static_cast<std::uint32_t>(tid);
  span.depth = static_cast<std::uint32_t>(depth);
  return true;
}

}  // namespace

std::vector<Span> drainSpans() {
  std::vector<Span> spans;
  std::istringstream in(oisa::obs::drainTraceJson());
  std::string line;
  Span span;
  while (std::getline(in, line)) {
    if (parseEvent(line, span)) spans.push_back(span);
  }
  // Per thread, in start order (an enclosing span first on ties), a stack
  // of open spans gives each span its direct parent: the nearest open
  // span one level up.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const Span& a = spans[x];
    const Span& b = spans[y];
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.tsUs != b.tsUs) return a.tsUs < b.tsUs;
    return a.depth < b.depth;
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    Span& s = spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && spans[stack.back()].depth >= s.depth) {
      stack.pop_back();
    }
    if (!stack.empty() && spans[stack.back()].depth + 1 == s.depth) {
      spans[stack.back()].childUs += s.durUs;
    }
    stack.push_back(i);
  }
  return spans;
}

double totalSeconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::vector<AttributionRow> attribute(const std::vector<Span>& spans) {
  std::map<std::string, AttributionRow> byName;
  for (const Span& s : spans) {
    AttributionRow& row = byName[s.name];
    row.name = s.name;
    ++row.count;
    row.totalS += s.seconds();
    row.selfS += s.selfSeconds();
  }
  std::vector<AttributionRow> rows;
  for (auto& [name, row] : byName) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              return a.totalS > b.totalS;
            });
  return rows;
}

}  // namespace perfbench
