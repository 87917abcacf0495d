// oisa_obs: run attribution metadata.
//
// The facts that make a perf number or a metrics dump attributable after
// the fact: which commit, which host, how many hardware threads, which
// process. The git sha comes from the environment when the program runs
// (OISA_GIT_SHA, else GITHUB_SHA, which every GitHub Actions job sets):
// a sha baked in when the build was configured goes stale on the first
// incremental rebuild after a new commit.
#pragma once

#include <map>
#include <string>

namespace oisa::obs {

/// Commit sha: env OISA_GIT_SHA, else GITHUB_SHA, else "unknown" (an
/// empty variable counts as unset).
[[nodiscard]] std::string gitSha();

/// gethostname(), "unknown" on failure.
[[nodiscard]] std::string hostName();

/// Baseline attribution map: git_sha, hostname, pid, hw_threads. The
/// benches' bench::runMetadata(threads) adds the lane selection and the
/// worker-thread count, and writes that one map into every BENCH_*.json
/// and every --metrics-out file.
[[nodiscard]] std::map<std::string, std::string> runMetadata();

}  // namespace oisa::obs
