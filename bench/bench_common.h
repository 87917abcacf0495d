// Shared helpers for the figure-regeneration benches.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/synthesis.h"
#include "core/file_publish.h"
#include "core/status.h"
#include "core/subprocess.h"
#include "experiments/cli.h"
#include "experiments/grid_scheduler.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "netlist/lane_width.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/span.h"
#include "timing/cell_library.h"

namespace oisa::bench {

/// `--threads=N` worker-thread count for grid sweeps (0 = hardware
/// concurrency, the default). Results are bit-identical at any value.
inline unsigned threadsOption(const experiments::ArgParser& args) {
  return static_cast<unsigned>(args.getU64("threads", 0));
}

/// Crash-safety CLI surface shared by every grid bench:
///   --checkpoint=path        snapshot completed cells to `path`
///   --resume                 adopt an existing snapshot before running
///   --checkpoint-every=N     autosave cadence in cells (default 8; 0 is
///                            rejected — it would disable autosaving the
///                            flag exists to provide)
///   --retries=N              per-cell attempts on transient failure
///   --deadline=S             wall-clock budget in seconds (0 = none)
///   --progress               periodic one-line progress heartbeat on
///                            stderr (cells done/total, retries, ETA)
/// Resumed campaigns are byte-identical to uninterrupted ones.
inline void applyRobustnessOptions(const experiments::ArgParser& args,
                                   experiments::RunOptions& run) {
  run.checkpoint.path = args.getString("checkpoint", "");
  run.checkpoint.resume = args.getBool("resume", false);
  run.checkpoint.everyCells = args.getPositiveU64("checkpoint-every", 8);
  run.cellAttempts = static_cast<unsigned>(args.getU64("retries", 1));
  run.deadlineSeconds = args.getDouble("deadline", 0.0);
  run.progress = args.getBool("progress", false);
}

/// Model persistence flags of the prediction benches (fig7/fig8):
///   --model-out=base   after fitting, save each cell's flat bank as
///                      binary envelope v2 at <base>.<design>.cpr<N>.ffb
///   --model-in=base    mmap-load each cell's bank from the same scheme
///                      instead of collecting a training trace — rows
///                      (and CSVs) are byte-identical to the trained run
/// Both forward to shard workers: every worker owns its cells' banks.
inline void applyModelOptions(const experiments::ArgParser& args,
                              experiments::PredictionOptions& options) {
  options.modelOut = args.getString("model-out", "");
  options.modelIn = args.getString("model-in", "");
}

/// Observability CLI surface shared by every figure/fault bench:
///   --metrics-out=FILE  write the metrics registry snapshot as JSON
///                       (schema oisa-metrics-v1) at exit; the registry
///                       itself is always on (sharded fleet rollups need
///                       it flag-free) — the flag only adds the artifact
///   --trace-out=FILE    record RAII spans into the bounded ring; write
///                       Chrome trace-event JSON (open in Perfetto) at exit
///   --events-out=FILE   supervisor-side JSONL fleet lifecycle log
///   --trace-buffer=N    span ring capacity in events (default 65536;
///                       overflow drops events and counts the drops)
/// Telemetry is side-effect-only by construction: every CSV and table is
/// byte-identical with and without these flags (cross-check #11 in
/// ARCHITECTURE.md; enforced by a cmp in CI).
struct ObsContext {
  std::string metricsOut;
  std::string traceOut;
  std::string eventsOut;
};

/// Parses the obs flags and arms the requested sinks. Call before the
/// campaign body so spans/counters from the run land in the artifacts.
inline ObsContext beginObs(const experiments::ArgParser& args) {
  ObsContext ctx;
  ctx.metricsOut = args.getString("metrics-out", "");
  ctx.traceOut = args.getString("trace-out", "");
  ctx.eventsOut = args.getString("events-out", "");
  if (!ctx.traceOut.empty()) {
    obs::startTracing(
        static_cast<std::size_t>(args.getPositiveU64("trace-buffer", 65536)));
  }
  return ctx;
}

/// What setupSharding decided this process is.
struct ShardContext {
  /// False in shard workers: they compute and checkpoint, the supervisor
  /// process prints the tables/CSV after the merge.
  bool emitOutput = true;
  /// Set in the supervisor after runShardSupervisor finished.
  std::optional<experiments::ShardReport> report;
  /// Owned by the context in worker mode; run.heartbeat points at it.
  std::unique_ptr<experiments::HeartbeatEmitter> heartbeat;
};

/// Forwards this invocation's argv to a shard worker, minus everything
/// the supervisor owns (shard topology, checkpoint/resume plumbing,
/// output paths) — the supervisor re-appends those per shard. Workers
/// that were not given --threads default to a fair share of the machine
/// so N shards do not oversubscribe it N times.
inline std::vector<std::string> forwardedWorkerArgs(
    const experiments::ArgParser& args, unsigned shards) {
  static const std::set<std::string> kSupervisorOnly = {
      "shards",      "shard-worker", "shard-strikes", "shard-timeout",
      "shard-backoff", "quarantine", "checkpoint",    "resume",
      "csv",         "json",         "progress",      "threads",
      "metrics-out", "trace-out",    "events-out"};
  std::vector<std::string> out;
  for (const auto& [key, value] : args.all()) {
    if (kSupervisorOnly.count(key) != 0) continue;
    out.push_back("--" + key + "=" + value);
  }
  unsigned threads = static_cast<unsigned>(args.getU64("threads", 0));
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    threads = (hw + shards - 1) / shards;
  }
  out.push_back("--threads=" + std::to_string(threads));
  return out;
}

/// Multi-process campaign execution (experiments/shard.h). Three modes:
///
///   --shard-worker=i/N   this process is a supervised worker: compute
///                        the slice's cells into <checkpoint>.shard<i>,
///                        report over the heartbeat pipe, emit nothing;
///   --shards=N (N > 1)   supervise N workers (spawn/monitor/restart/
///                        quarantine), merge their snapshots into the
///                        base checkpoint, then fall through and run the
///                        campaign in-process with --resume — every
///                        surviving cell is served from the merged
///                        snapshot, so the output is byte-identical to
///                        an unsharded run and goes through the
///                        identical emission path;
///   neither              plain single-process run (ctx is inert).
///
/// `cellCount` is the full campaign grid size (designs × CPR points).
/// Throws StatusError on bad shard flags or a failed supervision run.
inline ShardContext setupSharding(const experiments::ArgParser& args,
                                  const char* argv0,
                                  experiments::RunOptions& run,
                                  std::size_t cellCount) {
  ShardContext ctx;
  const std::string workerSpec = args.getString("shard-worker", "");
  if (!workerSpec.empty()) {
    const auto spec =
        experiments::ShardWorkerSpec::parse(workerSpec).valueOrThrow();
    const std::string base = args.getString("checkpoint", "");
    if (base.empty()) {
      throw core::StatusError(core::Status::invalidInput(
          "--shard-worker requires --checkpoint=<path> (the shard snapshot "
          "derives from it)"));
    }
    run.shard.index = spec.index;
    run.shard.count = spec.count;
    run.shard.skipCells =
        experiments::parseCellList(args.getString("quarantine", ""))
            .valueOrThrow();
    // Private snapshot, keyed by *global* cell index with the full-grid
    // shape and fingerprint — that is what makes shard snapshots
    // merge-compatible with each other and with the base.
    run.checkpoint.path = experiments::shardCheckpointPath(base, spec.index);
    run.checkpoint.resume = true;  // restarts adopt the previous attempt
    run.progress = false;          // the supervisor owns the terminal
    ctx.heartbeat = experiments::HeartbeatEmitter::fromEnv();
    run.heartbeat = ctx.heartbeat.get();
    ctx.emitOutput = false;
    return ctx;
  }
  const unsigned shards =
      static_cast<unsigned>(args.getPositiveU64("shards", 1));
  if (shards <= 1) return ctx;
  if (run.checkpoint.path.empty()) {
    throw core::StatusError(core::Status::invalidInput(
        "--shards requires --checkpoint=<path> (shard results merge "
        "through it)"));
  }
  experiments::ShardSupervisorOptions sup;
  sup.shards = shards;
  sup.binary = core::selfExecutablePath(argv0);
  sup.workerArgs = forwardedWorkerArgs(args, shards);
  sup.checkpointBase = run.checkpoint.path;
  sup.resumeBase = run.checkpoint.resume;
  sup.cellCount = cellCount;
  sup.maxCellStrikes =
      static_cast<unsigned>(args.getPositiveU64("shard-strikes", 3));
  sup.heartbeatTimeoutSec = args.getDouble("shard-timeout", 30.0);
  sup.restartBackoffMs = args.getU64("shard-backoff", 200);
  sup.progress = run.progress;
  // Fleet observability: the supervisor keeps the aggregate artifacts
  // (events log, merged metrics with the fleet rollup) and hands every
  // worker a private --metrics-out/--trace-out derived from the same base
  // so per-shard JSON lands next to the supervisor's.
  sup.eventLogPath = args.getString("events-out", "");
  sup.workerMetricsBase = args.getString("metrics-out", "");
  sup.workerTraceBase = args.getString("trace-out", "");
  ctx.report = experiments::runShardSupervisor(sup).valueOrThrow();
  // Final in-process pass over the *whole* grid: --resume against the
  // merged snapshot serves every completed cell; only quarantined cells
  // are skipped (their rows stay empty and the emitters drop them).
  run.checkpoint.resume = true;
  run.shard = {};
  for (const auto& q : ctx.report->quarantined) {
    run.shard.skipCells.push_back(q.cell);
  }
  std::sort(run.shard.skipCells.begin(), run.shard.skipCells.end());
  return ctx;
}

/// Writes the per-process telemetry artifacts. Call at the end of every
/// bench main, *before* the worker-mode early return — shard workers
/// write their own metrics/trace files (the supervisor pointed them at
/// <base>.shard<i>) even though they emit no tables. The heartbeat flush
/// runs first so the supervisor's fleet rollup and this worker's metrics
/// file agree exactly on a clean run (nothing increments counters between
/// the flush and the snapshot).
inline void writeObsArtifacts(const ObsContext& obsCtx,
                              const ShardContext& shard) {
  if (shard.heartbeat != nullptr) shard.heartbeat->metricsFlush();
  if (!obsCtx.metricsOut.empty()) {
    const std::map<std::string, std::uint64_t>* fleet =
        shard.report.has_value() && !shard.report->fleetCounters.empty()
            ? &shard.report->fleetCounters
            : nullptr;
    if (const core::Status s =
            obs::writeMetricsJson(obsCtx.metricsOut, obs::runMetadata(), fleet);
        !s.isOk()) {
      std::cerr << "warning: " << s.toString() << "\n";
    } else {
      std::cerr << "(metrics written to " << obsCtx.metricsOut << ")\n";
    }
  }
  if (!obsCtx.traceOut.empty()) {
    // Drain before stopTracing — stopping retires the ring.
    if (const core::Status s = obs::writeTraceJson(obsCtx.traceOut);
        !s.isOk()) {
      std::cerr << "warning: " << s.toString() << "\n";
    } else {
      std::cerr << "(trace written to " << obsCtx.traceOut << ")\n";
    }
    obs::stopTracing();
  }
}

/// Human-readable tail of a supervised campaign: what was restarted,
/// quarantined, or absolved (on stderr, after the tables), plus the
/// fleet-wide counter rollup streamed over the heartbeat pipes.
inline void printShardReport(const ShardContext& ctx) {
  if (!ctx.report.has_value()) return;
  const experiments::ShardReport& r = *ctx.report;
  std::cerr << "shards: " << r.cellsDone << " cell completion(s) observed, "
            << r.restarts << " worker restart(s)\n";
  for (const auto& [name, value] : r.fleetCounters) {
    std::cerr << "  fleet " << name << " = " << value << "\n";
  }
  for (const experiments::QuarantinedCell& q : r.quarantined) {
    std::cerr << "  quarantined cell " << q.cell << " (shard " << q.shard
              << "): worker died with " << q.lastExit.toString()
              << (q.stalled ? " after a heartbeat stall" : "") << ", "
              << q.strikes << " strike(s) — row omitted\n";
  }
  for (const std::uint64_t cell : r.absolved) {
    std::cerr << "  absolved cell " << cell
              << ": completed despite strikes (lost heartbeat)\n";
  }
}

/// Minimal machine-readable bench emitter: one flat JSON object per file,
/// so CI can track the perf trajectory across PRs (BENCH_timed.json,
/// BENCH_batch.json, ...). Keys and string values are escaped by the obs
/// writers' escaper, so any value (a commit id, a hostname) stays valid
/// JSON.
class BenchJson {
 public:
  explicit BenchJson(std::string benchName) { add("bench", benchName); }

  BenchJson& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    obs::appendJsonEscaped(quoted, value);
    fields_.emplace_back(key, quoted + '"');
    return *this;
  }
  BenchJson& add(const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    fields_.emplace_back(key, os.str());
    return *this;
  }
  BenchJson& add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      obs::appendJsonEscaped(out, fields_[i].first);
      out += "\": " + fields_[i].second;
    }
    return out + "}\n";
  }

  /// Writes the object to `path` when non-empty (the `--json=path` flag).
  /// Returns IoError naming the path when the write fails.
  [[nodiscard]] core::Status writeFile(const std::string& path) const {
    if (path.empty()) return core::Status::ok();
    if (core::Status s = core::writeFile(path, str()); !s.isOk()) return s;
    std::cout << "(json written to " << path << ")\n";
    return core::Status::ok();
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Run-provenance fields for every BENCH_*.json artifact: commit, host,
/// lane engine, thread count — the facts that make a perf number from CI
/// attributable weeks later.
inline void addRunMetadata(BenchJson& json,
                           const experiments::ArgParser& args) {
  for (const auto& [key, value] : obs::runMetadata()) {
    json.add(key, value);
  }
  json.add("lane_selection",
           netlist::laneSelectionName(netlist::selectLaneWidth()));
  unsigned threads = threadsOption(args);
  if (threads == 0) threads = std::thread::hardware_concurrency();
  json.add("threads", static_cast<std::uint64_t>(threads));
}

/// Shared epilogue of every speedup microbench (the BENCH_*.json
/// writers): records the headline `speedup` field plus run metadata,
/// writes the `--json` artifact when requested, and enforces the
/// `--min-speedup` CI gate. Returns the process exit code for main():
/// EXIT_FAILURE when the artifact cannot be written or the gate fails.
inline int finishSpeedupBench(BenchJson& json,
                              const experiments::ArgParser& args,
                              double speedup, double minSpeedup) {
  json.add("speedup", speedup);
  addRunMetadata(json, args);
  if (const core::Status s = json.writeFile(args.getString("json", ""));
      !s.isOk()) {
    std::cerr << "error: " << s.toString() << '\n';
    return EXIT_FAILURE;
  }
  if (minSpeedup > 0.0 && speedup < minSpeedup) {
    std::cerr << "FAIL: speedup " << speedup << "x below required "
              << minSpeedup << "x\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

/// Top-level error boundary for the bench mains: runs `body` and turns
/// typed failures into a readable report + EXIT_FAILURE instead of an
/// unhandled-exception abort. GridError gets the full per-cell breakdown
/// (cell index, cause, attempts) so a failed campaign is diagnosable
/// from the log alone.
template <typename Fn>
int runGuarded(Fn&& body) {
  try {
    return body();
  } catch (const experiments::GridError& e) {
    std::cerr << "error: " << e.what() << '\n';
    for (const auto& f : e.failures()) {
      std::cerr << "  cell " << f.cell << ": " << f.status.toString()
                << " (after " << f.attempts << " attempt"
                << (f.attempts == 1 ? "" : "s") << ")\n";
    }
    if (e.cancelled()) {
      std::cerr << "  cancelled: " << e.cellsNotRun()
                << " cell(s) never claimed\n";
    }
    std::cerr << "(completed cells are in the checkpoint when --checkpoint "
                 "was given; rerun with --resume)\n";
    return EXIT_FAILURE;
  } catch (const core::StatusError& e) {
    std::cerr << "error: " << e.status().toString() << '\n';
    return EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}

/// Paper CPR points (percent of the 0.3 ns sign-off period).
inline const std::vector<double>& paperCprs() {
  static const std::vector<double> cprs = {5.0, 10.0, 15.0};
  return cprs;
}

/// Synthesizes the twelve paper designs with CLI-controlled options.
/// The power-recovery (slack-relaxation) pass is ON by default — the
/// paper's circuits were synthesized by a commercial tool that trades all
/// positive slack for power, which is what exposes them to overclocking;
/// pass --relax=false for raw structural timing.
inline std::vector<circuits::SynthesizedDesign> synthesizeAll(
    const experiments::ArgParser& args) {
  circuits::SynthesisOptions options;
  options.relaxSlack = args.getBool("relax", true);
  options.relaxation.maxSlowdown =
      args.getDouble("max-slowdown", options.relaxation.maxSlowdown);
  return circuits::synthesizePaperDesigns(timing::CellLibrary::generic65(),
                                          options);
}

/// Prints the table and, when --csv=<path> is given, also writes a CSV.
inline void emit(const experiments::Table& table,
                 const experiments::ArgParser& args) {
  table.print(std::cout);
  const std::string csv = args.getString("csv", "");
  if (!csv.empty()) {
    table.writeCsvFile(csv);
    std::cout << "\n(csv written to " << csv << ")\n";
  }
}

}  // namespace oisa::bench
