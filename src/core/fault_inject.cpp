#include "core/fault_inject.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace oisa::core {

namespace fault_inject_detail {

std::atomic<bool> gArmed{false};

namespace {

/// One site's schedule: which hits fail.
struct SiteRule {
  std::uint64_t nth = 0;     ///< first failing hit (1-based)
  bool permanent = false;    ///< fail every hit >= nth
  std::uint64_t hits = 0;    ///< hits observed so far
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, SiteRule> rules;
  // Sites hit while armed but without a rule still count (introspection).
  std::unordered_map<std::string, std::uint64_t> extraHits;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Parses "site:N", "site:N+" or "site:*" into (site, rule).
Status parseEntry(std::string_view entry, std::string& site, SiteRule& rule) {
  const std::size_t colon = entry.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == entry.size()) {
    return Status::invalidInput("fault_inject: malformed plan entry '" +
                                std::string(entry) +
                                "' (expected site:N, site:N+ or site:*)");
  }
  site = std::string(entry.substr(0, colon));
  const std::string_view known[] = {
      fault_inject::kCheckpointWrite, fault_inject::kCheckpointRead,
      fault_inject::kFileOpen, fault_inject::kGridCell};
  if (std::find(std::begin(known), std::end(known), site) == std::end(known)) {
    return Status::invalidInput("fault_inject: unknown site '" + site +
                                "' in '" + std::string(entry) +
                                "' (expected checkpoint.write, "
                                "checkpoint.read, file.open or grid.cell)");
  }
  std::string_view spec = entry.substr(colon + 1);
  if (spec == "*") {
    rule = SiteRule{1, true, 0};
    return Status::ok();
  }
  bool permanent = false;
  if (spec.back() == '+') {
    permanent = true;
    spec.remove_suffix(1);
  }
  std::uint64_t nth = 0;
  if (spec.empty()) {
    return Status::invalidInput("fault_inject: empty hit index in '" +
                                std::string(entry) + "'");
  }
  for (const char ch : spec) {
    if (ch < '0' || ch > '9') {
      return Status::invalidInput("fault_inject: bad hit index in '" +
                                  std::string(entry) + "'");
    }
    nth = nth * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  if (nth == 0) {
    return Status::invalidInput(
        "fault_inject: hit indices are 1-based; got 0 in '" +
        std::string(entry) + "'");
  }
  rule = SiteRule{nth, permanent, 0};
  return Status::ok();
}

/// Reads OISA_FAULT_INJECT exactly once, before main touches any site.
/// A malformed env plan aborts loudly: silently ignoring it would turn a
/// CI injection run into a false-green pass.
struct EnvArm {
  EnvArm() {
    const char* env = std::getenv("OISA_FAULT_INJECT");
    if (env != nullptr && *env != '\0') fault_inject::arm(env);
  }
};
const EnvArm gEnvArm;

}  // namespace

bool shouldFailSlow(const char* site) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.rules.find(site);
  if (it == r.rules.end()) {
    ++r.extraHits[site];
    return false;
  }
  SiteRule& rule = it->second;
  ++rule.hits;
  return rule.permanent ? rule.hits >= rule.nth : rule.hits == rule.nth;
}

}  // namespace fault_inject_detail

namespace fault_inject {

void arm(const std::string& plan) {
  using fault_inject_detail::gArmed;
  auto& r = fault_inject_detail::registry();
  decltype(r.rules) rules;
  std::size_t begin = 0;
  while (begin <= plan.size()) {
    std::size_t end = plan.find(',', begin);
    if (end == std::string::npos) end = plan.size();
    const std::string_view entry =
        std::string_view(plan).substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    std::string site;
    fault_inject_detail::SiteRule rule;
    throwIfError(fault_inject_detail::parseEntry(entry, site, rule));
    rules[std::move(site)] = rule;
  }
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.rules = std::move(rules);
    r.extraHits.clear();
    gArmed.store(!r.rules.empty(), std::memory_order_relaxed);
  }
}

void reset() {
  auto& r = fault_inject_detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.rules.clear();
  r.extraHits.clear();
  fault_inject_detail::gArmed.store(false, std::memory_order_relaxed);
}

std::uint64_t hitCount(const std::string& site) {
  auto& r = fault_inject_detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (const auto it = r.rules.find(site); it != r.rules.end()) {
    return it->second.hits;
  }
  if (const auto it = r.extraHits.find(site); it != r.extraHits.end()) {
    return it->second;
  }
  return 0;
}

}  // namespace fault_inject

}  // namespace oisa::core
