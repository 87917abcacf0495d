// oisa_core: deterministic, seedable infrastructure-fault injection.
//
// The paper treats *hardware* faults as first-class simulable events
// (stuck-at injection); this registry does the same for *infrastructure*
// faults — torn checkpoint writes, failed opens, dying grid cells — so
// the recovery paths are regression-testable instead of only exercised
// by real outages.
//
// A plan is a comma-separated list of sites:
//
//   OISA_FAULT_INJECT="checkpoint.write:2,grid.cell:5+,file.open:*"
//
//   site:N   fail exactly the Nth hit of that site (1-based) — a
//            *transient* fault: the retry succeeds;
//   site:N+  fail every hit from the Nth on — a *permanent* fault;
//   site:*   fail every hit (shorthand for site:1+).
//
// Hit counting is per-site and process-global, so a given plan names one
// deterministic failure schedule: same plan + same execution order =
// same faults. (Grid cells are claimed concurrently, so under threads the
// *which-cell* mapping of grid.cell hits is scheduling-dependent; tests
// that need an exact cell pin the plan to single-threaded runs or use
// `*`/`N+` whose effect is order-independent.)
//
// When no plan is armed the hot-path check is one branch on a relaxed
// atomic bool — cheap enough to leave in release builds at every site.
// Tests arm plans programmatically with ScopedFaultPlan; the env var is
// read once at first use for whole-process injection (CI kill tests).
#pragma once

#include <atomic>
#include <string>

#include "core/status.h"

namespace oisa::core {

namespace fault_inject_detail {
extern std::atomic<bool> gArmed;
[[nodiscard]] bool shouldFailSlow(const char* site);
}  // namespace fault_inject_detail

namespace fault_inject {

/// Well-known sites (callers pass these; tests reference them by name).
inline constexpr const char* kCheckpointWrite = "checkpoint.write";
inline constexpr const char* kCheckpointRead = "checkpoint.read";
inline constexpr const char* kFileOpen = "file.open";
inline constexpr const char* kGridCell = "grid.cell";

/// True when this hit of `site` must fail according to the armed plan.
/// Compiles to a single untaken branch when nothing is armed.
[[nodiscard]] inline bool shouldFail(const char* site) {
  if (!fault_inject_detail::gArmed.load(std::memory_order_relaxed)) {
    return false;
  }
  return fault_inject_detail::shouldFailSlow(site);
}

/// Throws StatusError(code) when this hit of `site` must fail.
inline void maybeThrow(const char* site,
                       StatusCode code = StatusCode::Internal) {
  if (shouldFail(site)) {
    throw StatusError(Status(
        code, std::string("fault injected at site '") + site + "'"));
  }
}

/// Arms `plan` ("" disarms), replacing any previous plan and resetting
/// all hit counters. Throws StatusError(InvalidInput) on a malformed
/// plan or a site other than the four above, naming it: a misspelled
/// site would otherwise arm nothing and fake a passing injection run.
/// Not meant to race with in-flight shouldFail callers.
void arm(const std::string& plan);

/// Disarms injection and resets hit counters.
void reset();

/// Hits recorded so far for `site` (armed plans only; test introspection).
[[nodiscard]] std::uint64_t hitCount(const std::string& site);

}  // namespace fault_inject

/// RAII plan for tests: arms on construction, disarms on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& plan) {
    fault_inject::arm(plan);
  }
  ~ScopedFaultPlan() { fault_inject::reset(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace oisa::core
