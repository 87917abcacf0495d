// Shared helpers for the figure-regeneration benches and the micro
// benches' one timing harness (timePairs).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/synthesis.h"
#include "core/file_publish.h"
#include "core/status.h"
#include "experiments/cli.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "netlist/lane_width.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/span.h"
#include "predict/trace.h"
#include "timing/cell_library.h"

namespace oisa::bench {

/// `--threads=N` worker-thread count for grid sweeps (0 = hardware
/// concurrency, the default). Results are bit-identical at any value.
inline unsigned threadsOption(const experiments::ArgParser& args) {
  return args.getBounded<unsigned>("threads", 0);
}

/// Crash-safety CLI surface shared by every grid bench:
///   --checkpoint=path        snapshot completed cells to `path`
///   --resume                 adopt an existing snapshot before running
///   --checkpoint-every=N     autosave cadence in cells (default 8; 0 is
///                            rejected — it would disable autosaving the
///                            flag exists to provide)
///   --retries=N              per-cell attempts on transient failure
///   --deadline=S             wall-clock budget in seconds (0 = none;
///                            negative is rejected, not read as none)
///   --progress               periodic one-line progress report on
///                            stderr (cells done/total, retries, ETA)
/// Resumed campaigns are byte-identical to uninterrupted ones.
inline void applyRobustnessOptions(const experiments::ArgParser& args,
                                   experiments::RunOptions& run) {
  run.checkpoint.path = args.getString("checkpoint", "");
  run.checkpoint.resume = args.getBool("resume", false);
  run.checkpoint.everyCells =
      args.getBounded<std::uint64_t>("checkpoint-every", 8, 1);
  run.cellAttempts = args.getBounded<unsigned>("retries", 1);
  run.deadlineSeconds = args.getDouble("deadline", 0.0);
  if (run.deadlineSeconds < 0.0) {
    throw core::StatusError(core::Status::invalidInput(
        "--deadline: expected a non-negative number of seconds, got '" +
        args.getString("deadline", "") + "'"));
  }
  run.progress = args.getBool("progress", false);
}

/// Model persistence flags of the prediction benches (fig7/fig8):
///   --model-out=base   after fitting, save each cell's flat bank as
///                      binary envelope v2 at <base>.<design>.cpr<N>.ffb
///   --model-in=base    mmap-load each cell's bank from the same scheme
///                      instead of collecting a training trace — rows
///                      (and CSVs) are byte-identical to the trained run
inline void applyModelOptions(const experiments::ArgParser& args,
                              experiments::PredictionOptions& options) {
  options.modelOut = args.getString("model-out", "");
  options.modelIn = args.getString("model-in", "");
}

/// Observability CLI surface shared by every figure/fault bench:
///   --metrics-out=FILE  write the metrics registry snapshot as JSON
///                       (schema oisa-metrics-v1, with runMetadata under
///                       "meta") at exit; the registry itself is always
///                       on — the flag only adds the artifact
///   --trace-out=FILE    record RAII spans into the session's buffer;
///                       write Chrome trace-event JSON (open in Perfetto)
///                       at exit
///   --trace-buffer=N    span buffer capacity in events, reserved up
///                       front and rounded up to a power of two (default
///                       65536, ~270x the 241 spans of a default
///                       fault_coverage run; at most kMaxTraceBuffer;
///                       overflow drops events and counts the drops)
/// Telemetry is side-effect-only by construction: every CSV and table is
/// byte-identical with and without these flags (cross-check #11 in
/// ARCHITECTURE.md; enforced by a cmp in CI).
struct ObsContext {
  std::string metricsOut;
  std::string traceOut;
};

/// The largest --trace-buffer: 2^20 events (151 MB reserved), ~4,000x the
/// spans of any default run. Past 2^63 the power-of-two round-up
/// overflows, and far below that the reservation fails.
inline constexpr std::size_t kMaxTraceBuffer = std::size_t{1} << 20;

/// Parses the obs flags and arms the requested sinks. Call before the
/// campaign body so spans/counters from the run land in the artifacts.
inline ObsContext beginObs(const experiments::ArgParser& args) {
  ObsContext ctx;
  ctx.metricsOut = args.getString("metrics-out", "");
  ctx.traceOut = args.getString("trace-out", "");
  if (!ctx.traceOut.empty()) {
    obs::startTracing(args.getBounded<std::size_t>("trace-buffer", 65536, 1,
                                                   kMaxTraceBuffer));
  }
  return ctx;
}

/// Run-provenance facts for every artifact a bench writes (BENCH_*.json
/// and --metrics-out): obs::runMetadata's commit, host, pid and hardware
/// threads, plus the lane engine and the worker-thread count `threads`
/// (the --threads value; 0 = hardware concurrency) — the facts that make
/// a perf number from CI attributable weeks later.
inline std::map<std::string, std::string> runMetadata(unsigned threads) {
  std::map<std::string, std::string> meta = obs::runMetadata();
  meta.emplace("lane_selection",
               netlist::laneSelectionName(netlist::defaultLaneSelection()));
  if (threads == 0) threads = std::thread::hardware_concurrency();
  meta.emplace("threads", std::to_string(threads));
  return meta;
}

/// Writes the telemetry artifacts the obs flags asked for. Call once the
/// campaign has run, so its counters and spans are in them; `threads` is
/// the campaign's --threads value.
inline void writeObsArtifacts(const ObsContext& obsCtx, unsigned threads) {
  if (!obsCtx.metricsOut.empty()) {
    if (const core::Status s =
            obs::writeMetricsJson(obsCtx.metricsOut, runMetadata(threads));
        !s.isOk()) {
      std::cerr << "warning: " << s.toString() << "\n";
    } else {
      std::cerr << "(metrics written to " << obsCtx.metricsOut << ")\n";
    }
  }
  if (!obsCtx.traceOut.empty()) {
    // Drain before stopTracing — stopping frees the session's buffer.
    if (const core::Status s = obs::writeTraceJson(obsCtx.traceOut);
        !s.isOk()) {
      std::cerr << "warning: " << s.toString() << "\n";
    } else {
      std::cerr << "(trace written to " << obsCtx.traceOut << ")\n";
    }
    obs::stopTracing();
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

/// Adds runMetadata(threads) to a BENCH_*.json artifact.
inline void addRunMetadata(BenchJson& json, unsigned threads) {
  for (const auto& [key, value] : runMetadata(threads)) json.add(key, value);
}

/// The flags every speedup microbench reads, before rejectUnread:
/// --min-speedup=X (the CI gate; 0, the default, only reports), --json=path
/// (the BENCH_*.json artifact) and --threads=N (recorded in its metadata).
struct GateOptions {
  double minSpeedup = 0.0;
  std::string jsonPath;
  unsigned threads = 0;
};

inline GateOptions gateOptions(const experiments::ArgParser& args) {
  return {args.getDouble("min-speedup", 0.0), args.getString("json", ""),
          threadsOption(args)};
}

/// Shared epilogue of every speedup microbench (the BENCH_*.json
/// writers): prints and records the headline `speedup`, the median of
/// `pairs` pair ratios, plus run metadata, writes the `--json` artifact
/// when requested, and enforces the `--min-speedup` CI gate. Returns the
/// process exit code for main(): EXIT_FAILURE when the artifact cannot be
/// written or the gate fails.
inline int finishSpeedupBench(BenchJson& json, const GateOptions& gate,
                              double speedup, std::size_t pairs) {
  std::cout << "speedup: " << speedup << "x (median of " << pairs
            << " pair ratios)\n";
  json.add("pairs", static_cast<std::uint64_t>(pairs)).add("speedup", speedup);
  addRunMetadata(json, gate.threads);
  if (const core::Status s = json.writeFile(gate.jsonPath); !s.isOk()) {
    std::cerr << "error: " << s.toString() << '\n';
    return EXIT_FAILURE;
  }
  if (gate.minSpeedup > 0.0 && speedup < gate.minSpeedup) {
    std::cerr << "FAIL: speedup " << speedup << "x below required "
              << gate.minSpeedup << "x\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

/// Each side's seconds per pair and their medians, and `speedup`: the
/// median of the per-pair reference/contender ratios every gate reads.
struct PairTiming {
  std::vector<double> referenceSecs;
  std::vector<double> contenderSecs;
  double referenceSec = 0.0;
  double contenderSec = 0.0;
  double speedup = 0.0;
};

/// The median: the mean of the middle two for an even count, 0 for none.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// timePairs' statistics over measured pairs (referenceSecs[i],
/// contenderSecs[i]). A contender that took no time has ratio 0.
inline PairTiming summarizePairs(std::vector<double> referenceSecs,
                                 std::vector<double> contenderSecs) {
  std::vector<double> ratios(referenceSecs.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    ratios[i] =
        contenderSecs[i] > 0.0 ? referenceSecs[i] / contenderSecs[i] : 0.0;
  }
  const double referenceSec = median(referenceSecs);
  const double contenderSec = median(contenderSecs);
  return {std::move(referenceSecs), std::move(contenderSecs), referenceSec,
          contenderSec, median(std::move(ratios))};
}

/// The micro benches' one clock: the seconds one call of `run` takes.
/// Ungated figures (a load time, a kernel alone) read it directly.
template <typename Fn>
double seconds(Fn&& run) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  run();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The micro benches' one timing loop: runs `reference` and `contender`
/// back to back `pairs` times, the reference first in even pairs and the
/// contender first in odd ones, so host drift moves both sides of a
/// pair's ratio and the median ignores pairs a noise burst splits (Chen &
/// Revels, arXiv:1608.04295). `prepare(contenderNext)` runs untimed
/// before every run.
template <typename Reference, typename Contender,
          typename Prepare = void (*)(bool)>
PairTiming timePairs(std::size_t pairs, Reference&& reference,
                     Contender&& contender, Prepare&& prepare = [](bool) {}) {
  std::vector<double> secs[2] = {std::vector<double>(pairs),
                                 std::vector<double>(pairs)};
  for (std::size_t i = 0; i < pairs; ++i) {
    for (const bool isContender : {i % 2 == 1, i % 2 == 0}) {
      prepare(isContender);
      secs[isContender][i] =
          isContender ? seconds(contender) : seconds(reference);
    }
  }
  return summarizePairs(std::move(secs[0]), std::move(secs[1]));
}

/// The ML micro benches' synthetic overclocked-adder trace: a carry
/// crossing bit k in {3, 11, 19, 27} flips bit k+1 when the previous
/// cycle was quiet there, plus rare broadband noise, so the forests grow
/// real trees; untouched low bits exercise the constant-label shortcut.
inline predict::Trace makeTrace(int width, std::uint64_t cycles,
                                std::uint64_t seed) {
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::mt19937_64 rng(seed);
  predict::Trace trace;
  trace.reserve(cycles);
  std::uint64_t prevA = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    predict::TraceRecord rec;
    rec.a = rng() & mask;
    rec.b = rng() & mask;
    const std::uint64_t sum = rec.a + rec.b;
    rec.gold = sum & mask;
    rec.goldCout = ((sum >> width) & 1u) != 0;
    rec.diamond = rec.gold;
    rec.diamondCout = rec.goldCout;
    rec.silver = rec.gold;
    rec.silverCout = rec.goldCout;
    for (const int k : {3, 11, 19, 27}) {
      if (k + 1 >= width) continue;
      const bool carry = ((rec.a >> k) & (rec.b >> k) & 1u) != 0;
      const bool quiet = ((prevA >> k) & 1u) == 0;
      if (carry && quiet) rec.silver ^= std::uint64_t{1} << (k + 1);
    }
    if ((rng() & 0x3fu) == 0) {
      rec.silver ^= std::uint64_t{1}
                    << (rng() % static_cast<std::uint64_t>(width));
    }
    if ((rng() & 0xffu) == 0) rec.silverCout = !rec.silverCout;
    prevA = rec.a;
    trace.push_back(rec);
  }
  return trace;
}

/// Paper CPR points (percent of the 0.3 ns sign-off period).
inline const std::vector<double>& paperCprs() {
  static const std::vector<double> cprs = {5.0, 10.0, 15.0};
  return cprs;
}

/// The synthesis flags of the paper-design benches. The power-recovery
/// (slack-relaxation) pass is ON by default — the paper's circuits were
/// synthesized by a commercial tool that trades all positive slack for
/// power, which is what exposes them to overclocking; pass --relax=false
/// for raw structural timing.
inline circuits::SynthesisOptions synthesisOptions(
    const experiments::ArgParser& args) {
  circuits::SynthesisOptions options;
  options.relaxSlack = args.getBool("relax", true);
  options.maxSlowdown = args.getDouble("max-slowdown", options.maxSlowdown);
  return options;
}

/// Synthesizes the twelve paper designs.
inline std::vector<circuits::SynthesizedDesign> synthesizeAll(
    const circuits::SynthesisOptions& options) {
  return circuits::synthesizePaperDesigns(timing::CellLibrary::generic65(),
                                          options);
}

/// Prints the table and, when `csvPath` (the --csv flag) is non-empty,
/// also writes a CSV.
inline void emit(const experiments::Table& table,
                 const std::string& csvPath) {
  table.print(std::cout);
  if (!csvPath.empty()) {
    table.writeCsvFile(csvPath);
    std::cout << "\n(csv written to " << csvPath << ")\n";
  }
}

}  // namespace oisa::bench
