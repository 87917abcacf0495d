// The repository benchmark program (run it through perfbench/run.py, which
// builds it first).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --digests <file>
//       One measured run. Prints a report, then as its last line one JSON
//       object {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics with --trace 0, the per-layer metrics with
//       --trace 1. Exits 1 when any output check fails.
//   perfbench --verify --workload <name|all> --digests <file>
//       Checks every cell at the pinned and the held-out seed, untraced
//       and traced, and prints every metric and the attribution table.
//   perfbench --record-digests
//       Prints the digest lines of the pinned and held-out seeds.
//
// README.md describes the workloads, the metrics and what each measures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "spans.h"

namespace {

using perfbench::CampaignRows;
using perfbench::Span;
using perfbench::WorkloadSpec;
using Clock = std::chrono::steady_clock;

/// The seed every run also checks in its warm-up campaign, and the seed
/// held out from everything the benchmark was tuned on.
constexpr std::uint64_t kPinnedSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 7;
/// Set-up repetitions per batch; setup_s is the median over all batches.
constexpr int kSetupBatch = 5;
/// The tail percentile keeps this many cell samples beyond it.
constexpr std::size_t kTailBeyond = 10;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a 64 of one CSV row, as 16 hex digits.
std::string digest(const std::string& row) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : row) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// --- recorded digests ------------------------------------------------------

struct RecordedCell {
  std::string name;
  std::string digest;
};

/// digests.txt: `<workload> <seed> <cell> <cell-name> <digest>` per line.
class DigestBook {
 public:
  bool load(const std::string& path, std::string& error) {
    std::ifstream in(path);
    if (!in) {
      error = "cannot read digests file '" + path + "'";
      return false;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string workload;
      std::uint64_t seed = 0;
      std::size_t cell = 0;
      RecordedCell rec;
      if (!(fields >> workload >> seed >> cell >> rec.name >> rec.digest)) {
        error = "malformed digests line: " + line;
        return false;
      }
      auto& cells = book_[{workload, seed}];
      if (cell != cells.size()) {
        error = "digests out of cell order: " + line;
        return false;
      }
      cells.push_back(rec);
    }
    return true;
  }

  [[nodiscard]] const std::vector<RecordedCell>* find(
      const std::string& workload, std::uint64_t seed) const {
    const auto it = book_.find({workload, seed});
    return it == book_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::vector<RecordedCell>>
      book_;
};

// --- output checks ---------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  ///< counts repeat, no span dropped
};

/// Checks every cell of `rows`. A cell fails when it threw, when its name
/// or digest differs from the recorded one, or when its row differs from
/// `reference` (another computation of the same cells).
void checkCells(const CampaignRows& rows, const std::string& what,
                const std::vector<RecordedCell>* recorded,
                const CampaignRows* reference, Tally& tally) {
  for (std::size_t cell = 0; cell < rows.csv.size(); ++cell) {
    ++tally.attempted;
    const std::string& name = rows.cellNames[cell];
    std::string problem;
    if (!rows.errors[cell].empty()) {
      problem = "threw: " + rows.errors[cell];
    } else if (recorded != nullptr &&
               (recorded->size() != rows.csv.size() ||
                (*recorded)[cell].name != name ||
                (*recorded)[cell].digest != digest(rows.csv[cell]))) {
      problem = "expected digest " +
                (cell < recorded->size() ? (*recorded)[cell].digest
                                         : std::string("(none)")) +
                ", actual " + digest(rows.csv[cell]);
    } else if (reference != nullptr && reference->csv[cell] != rows.csv[cell]) {
      problem = "expected digest " + digest(reference->csv[cell]) +
                " (untraced pipeline), actual " + digest(rows.csv[cell]);
    }
    if (!problem.empty()) {
      ++tally.failed;
      std::cout << "FAIL " << what << " cell " << cell << " (" << name
                << "): " << problem << "\n";
    }
  }
}

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::uint64_t counterDelta(const oisa::obs::MetricsSnapshot& before,
                           const oisa::obs::MetricsSnapshot& after,
                           const std::string& name) {
  const auto get = [&](const oisa::obs::MetricsSnapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? std::uint64_t{0} : it->second;
  };
  return get(after) - get(before);
}

std::uint64_t histogramSumDelta(const oisa::obs::MetricsSnapshot& before,
                                const oisa::obs::MetricsSnapshot& after,
                                const std::string& name) {
  const auto get = [&](const oisa::obs::MetricsSnapshot& s) {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? std::uint64_t{0} : it->second.sum;
  };
  return get(after) - get(before);
}

/// One untraced campaign's grid accounting.
struct UntracedRep {
  double wallS = 0.0;
  double cpuS = 0.0;
  std::vector<double> cellS;  ///< every cell's wall time (grid cell spans)
  double idleShare = 0.0;
  double queueWaitUs = 0.0;
  double retries = 0.0;
  double failures = 0.0;
};

/// One traced campaign's layer figures.
struct TracedRep {
  double wallS = 0.0;
  std::map<std::string, double> times;   ///< per-layer seconds
  std::map<std::string, double> counts;  ///< must repeat exactly
  double cellS = 0.0;                    ///< Σ experiments.cell
  double unattributedS = 0.0;            ///< Σ its self time
};

UntracedRep measureUntraced(const WorkloadSpec& spec,
                            const std::vector<oisa::circuits::SynthesizedDesign>& designs,
                            std::uint64_t seed, CampaignRows& rows) {
  UntracedRep rep;
  const auto m0 = oisa::obs::snapshotMetrics();
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  rows = perfbench::runPipeline(spec, designs, seed);
  rep.wallS = secondsSince(t0);
  rep.cpuS = cpuSeconds() - cpu0;
  const auto m1 = oisa::obs::snapshotMetrics();
  // The grid's own per-cell span is the only per-cell clock the public
  // entry points expose.
  rep.cellS = perfbench::durations(perfbench::drainSpans(), "cell");
  double busy = 0.0;
  for (const double s : rep.cellS) busy += s;
  const double capacity = perfbench::kThreads * rep.wallS;
  rep.idleShare = capacity > 0.0 ? (capacity - busy) / capacity : 0.0;
  rep.queueWaitUs =
      static_cast<double>(histogramSumDelta(m0, m1, "grid.queue_wait_us"));
  rep.retries = static_cast<double>(counterDelta(m0, m1, "grid.retries"));
  rep.failures = static_cast<double>(counterDelta(m0, m1, "grid.cell_failures"));
  return rep;
}

TracedRep measureTraced(const WorkloadSpec& spec,
                        const std::vector<oisa::circuits::SynthesizedDesign>& designs,
                        std::uint64_t seed, perfbench::TracedCampaign& traced,
                        std::vector<Span>& cellSpans,
                        std::vector<Span>& probeSpans) {
  TracedRep rep;
  const auto m0 = oisa::obs::snapshotMetrics();
  const auto t0 = Clock::now();
  traced = perfbench::runTraced(spec, designs, seed);
  rep.wallS = secondsSince(t0);
  const auto m1 = oisa::obs::snapshotMetrics();
  const std::vector<Span> spans = perfbench::drainSpans();
  const perfbench::ProbeCounts probe =
      perfbench::runProbes(spec, designs, seed, traced);
  const std::vector<Span> probes = perfbench::drainSpans();
  cellSpans.insert(cellSpans.end(), spans.begin(), spans.end());
  probeSpans.insert(probeSpans.end(), probes.begin(), probes.end());

  perfbench::CellCounts sum;
  std::uint64_t maxTraceBytes = 0;
  for (const perfbench::CellCounts& c : traced.cells) {
    sum.collectCycles += c.collectCycles;
    sum.packRows += c.packRows;
    sum.nodes += c.nodes;
    sum.classes += c.classes;
    sum.timedEvents += c.timedEvents;
    sum.timedTransitions += c.timedTransitions;
    maxTraceBytes = std::max(maxTraceBytes, c.traceBytes);
  }
  for (const Span& s : spans) {
    if (s.name != "experiments.cell") continue;
    rep.cellS += s.seconds();
    rep.unattributedS += s.selfSeconds();
  }
  const auto t = [&](const char* name) {
    return perfbench::totalSeconds(spans, name);
  };
  const auto p = [&](const char* name) {
    return perfbench::totalSeconds(probes, name);
  };
  auto& times = rep.times;
  auto& counts = rep.counts;
  times["netlist.compile_s"] = t("netlist.compile");
  times["experiments.stimulus_s"] =
      p("experiments.stimulus") + p("experiments.coverage_stimulus");
  times["experiments.collect_s"] = t("experiments.collect");
  times["core.behavioral_s"] = p("core.behavioral");
  times["core.reduce_s"] = t("core.reduce");
  // Lane-sweep time is what is left of collect (and of the fault timed
  // runs) once the probed stimulus draws and behavioral adds are removed.
  times["timing.sweep_s"] =
      std::max(0.0, t("experiments.collect") + t("fault.timed") -
                        p("experiments.stimulus") - p("core.behavioral"));
  times["predict.pack_s"] = t("predict.pack");
  times["predict.evaluate_s"] = t("predict.evaluate");
  times["ml.fit_s"] = t("ml.fit");
  times["fault.universe_s"] = t("fault.universe");
  times["fault.coverage_s"] = t("fault.run_coverage");
  times["fault.timed_s"] = t("fault.timed");
  counts["experiments.stimuli"] = static_cast<double>(probe.stimuli);
  counts["experiments.collect_cycles"] = static_cast<double>(sum.collectCycles);
  counts["experiments.trace_bytes"] = static_cast<double>(maxTraceBytes);
  counts["core.behavioral_adds"] = static_cast<double>(probe.behavioralAdds);
  counts["timing.events"] = static_cast<double>(
      counterDelta(m0, m1, "sim.events_committed") + sum.timedEvents);
  counts["timing.lane_transitions"] = static_cast<double>(
      counterDelta(m0, m1, "sim.lane_transitions") + sum.timedTransitions);
  counts["predict.pack_rows"] = static_cast<double>(sum.packRows);
  counts["predict.eval_rows"] =
      static_cast<double>(counterDelta(m0, m1, "predict.eval_rows"));
  counts["ml.nodes"] = static_cast<double>(sum.nodes);
  counts["fault.classes"] = static_cast<double>(sum.classes);
  counts["fault.faults_simulated"] =
      static_cast<double>(counterDelta(m0, m1, "fault.faults_simulated"));
  counts["fault.gate_evaluations"] =
      static_cast<double>(counterDelta(m0, m1, "fault.gate_evaluations"));
  counts["fault.classes_detected"] =
      static_cast<double>(counterDelta(m0, m1, "fault.classes_detected"));
  return rep;
}

/// Highest percentile with at least kTailBeyond samples beyond it, as
/// (value, percentile); the maximum when there are too few samples.
std::pair<double, double> tail(std::vector<double> samples) {
  if (samples.empty()) return {0.0, 0.0};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= kTailBeyond) return {samples.back(), 100.0};
  const std::size_t rank = n - kTailBeyond;  // samples at or below
  return {samples[rank - 1],
          100.0 * static_cast<double>(rank) / static_cast<double>(n)};
}

void printAttribution(const std::vector<Span>& spans, const char* title,
                      double cellS) {
  std::printf("%s\n  %-30s %7s %10s %10s %8s\n", title, "span", "count",
              "total[s]", "self[s]", "%cell");
  for (const perfbench::AttributionRow& row : perfbench::attribute(spans)) {
    std::printf("  %-30s %7" PRIu64 " %10.4f %10.4f %8.2f\n", row.name.c_str(),
                row.count, row.totalS, row.selfS,
                cellS > 0.0 ? 100.0 * row.totalS / cellS : 0.0);
  }
}

struct RunResult {
  Tally tally;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
};

/// One measured run: set-up, a warm-up campaign at the pinned seed
/// (checked against its recorded digests), then campaigns at `seed` until
/// `seconds` have passed (at least one), each checked against the first.
/// With `traced`, every measured campaign is followed by a traced rebuild
/// and a probe pass.
RunResult runOnce(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds, bool traced, const DigestBook& digests) {
  RunResult result;
  Tally& tally = result.tally;
  std::printf("== %s  seed %" PRIu64 "  %s ==\n", spec.name, seed,
              traced ? "traced" : "untraced");

  // Set-up is synthesis alone. It runs kSetupBatch times before the first
  // cell and again after every measured campaign, so its median samples
  // the machine across the whole run, as the campaigns do.
  std::vector<double> setupS;
  std::vector<oisa::circuits::SynthesizedDesign> designs;
  const auto setUp = [&] {
    for (int rep = 0; rep < kSetupBatch; ++rep) {
      const auto t0 = Clock::now();
      auto fresh = perfbench::synthesize();
      setupS.push_back(secondsSince(t0));
      if (designs.empty()) designs = std::move(fresh);
    }
  };
  setUp();

  CampaignRows warm;
  (void)measureUntraced(spec, designs, kPinnedSeed, warm);
  checkCells(warm, "warm-up", digests.find(spec.name, kPinnedSeed), nullptr,
             tally);

  const std::vector<RecordedCell>* recorded = digests.find(spec.name, seed);
  std::vector<UntracedRep> untraced;
  std::vector<TracedRep> tracedReps;
  std::vector<Span> cellSpans;
  std::vector<Span> probeSpans;
  CampaignRows first;
  double simulatedCycles = 0.0;
  const auto start = Clock::now();
  do {
    CampaignRows rows;
    untraced.push_back(measureUntraced(spec, designs, seed, rows));
    const bool isFirst = untraced.size() == 1;
    checkCells(rows, "campaign", recorded, isFirst ? nullptr : &first, tally);
    if (isFirst) {
      first = rows;
      simulatedCycles = rows.simulatedCycles;
    }
    setUp();
    if (traced) {
      perfbench::TracedCampaign rebuilt;
      tracedReps.push_back(measureTraced(spec, designs, seed, rebuilt,
                                         cellSpans, probeSpans));
      checkCells(rebuilt.rows, "traced", nullptr, &first, tally);
      if (tracedReps.back().counts != tracedReps.front().counts) {
        tally.consistent = false;
        std::printf("FAIL traced: layer counts differ between campaigns\n");
      }
    }
  } while (secondsSince(start) < seconds);
  const std::uint64_t dropped = oisa::obs::traceDropped();
  if (dropped != 0) {
    tally.consistent = false;
    std::printf("FAIL span ring dropped %" PRIu64 " spans\n", dropped);
  }

  // End-to-end figures (untraced campaigns).
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> cells;
  std::vector<double> idle;
  std::vector<double> waits;
  std::vector<double> retries;
  std::vector<double> failures;
  for (const UntracedRep& rep : untraced) {
    walls.push_back(rep.wallS);
    cpus.push_back(rep.cpuS);
    cells.insert(cells.end(), rep.cellS.begin(), rep.cellS.end());
    idle.push_back(rep.idleShare);
    waits.push_back(rep.queueWaitUs);
    retries.push_back(rep.retries);
    failures.push_back(rep.failures);
  }
  const double wallS = median(walls);
  const auto [tailS, tailPct] = tail(cells);
  const std::uint64_t measuredCells = tally.attempted;
  result.endToEnd = {
      {"setup_s", median(setupS), "s"},
      {"wall_s", wallS, "s"},
      {"cycles_per_s", wallS > 0.0 ? simulatedCycles / wallS : 0.0, "1/s"},
      {"cell_s_p50", median(cells), "s"},
      {"cell_s_tail", tailS, "s"},
      {"cpu_s", median(cpus), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::printf("campaigns: %zu measured after 1 warm-up; input %.0f simulated "
              "adder cycles per campaign; %zu cell samples\n",
              untraced.size(), simulatedCycles, cells.size());
  std::printf("cell_s_tail is p%.1f of %zu cell samples\n", tailPct,
              cells.size());
  std::printf("campaign wall/cpu [s]:");
  for (const UntracedRep& rep : untraced) {
    std::printf(" %.3f/%.2f", rep.wallS, rep.cpuS);
  }
  std::printf("\n");
  std::printf("failed_share = %" PRIu64 " / %" PRIu64 " cells\n", tally.failed,
              measuredCells);
  std::printf("host-time figures only: the model is unvalidated against "
              "silicon (the repository holds no measured reference), so no "
              "accuracy error is reported\n");
  for (const Metric& m : result.endToEnd) {
    std::printf("  %-16s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!traced) return result;

  // Per-layer figures (traced campaigns and probe passes).
  std::map<std::string, std::vector<double>> times;
  std::vector<double> tracedWalls;
  double cellS = 0.0;
  double unattributedS = 0.0;
  for (const TracedRep& rep : tracedReps) {
    for (const auto& [name, value] : rep.times) times[name].push_back(value);
    tracedWalls.push_back(rep.wallS);
    cellS += rep.cellS;
    unattributedS += rep.unattributedS;
  }
  const auto time = [&](const char* name) { return median(times[name]); };
  const auto count = [&](const char* name) {
    return tracedReps.front().counts.at(name);
  };
  const double events = count("timing.events");
  const double nodes = count("ml.nodes");
  const double simulated = count("fault.faults_simulated");
  const double untracedWall = wallS;
  result.perLayer = {
      {"circuits.synth_s", median(setupS), "s"},
      {"netlist.compile_s", time("netlist.compile_s"), "s"},
      {"experiments.stimulus_s", time("experiments.stimulus_s"), "s"},
      {"experiments.stimuli", count("experiments.stimuli"), "count"},
      {"experiments.collect_s", time("experiments.collect_s"), "s"},
      {"experiments.collect_cycles", count("experiments.collect_cycles"), "count"},
      {"experiments.trace_bytes", count("experiments.trace_bytes"), "B"},
      {"experiments.grid_idle_share", median(idle), "ratio"},
      {"experiments.queue_wait_us", median(waits), "us"},
      {"experiments.cell_retries", median(retries), "count"},
      {"experiments.cell_failures", median(failures), "count"},
      {"core.behavioral_s", time("core.behavioral_s"), "s"},
      {"core.behavioral_adds", count("core.behavioral_adds"), "count"},
      {"core.reduce_s", time("core.reduce_s"), "s"},
      {"timing.sweep_s", time("timing.sweep_s"), "s"},
      {"timing.events", events, "count"},
      {"timing.lane_transitions", count("timing.lane_transitions"), "count"},
      {"timing.ns_per_event",
       events > 0.0 ? time("timing.sweep_s") * 1e9 / events : 0.0, "ns"},
      {"predict.pack_s", time("predict.pack_s"), "s"},
      {"predict.pack_rows", count("predict.pack_rows"), "count"},
      {"predict.evaluate_s", time("predict.evaluate_s"), "s"},
      {"predict.eval_rows", count("predict.eval_rows"), "count"},
      {"ml.fit_s", time("ml.fit_s"), "s"},
      {"ml.nodes", nodes, "count"},
      {"ml.fit_ns_per_node", nodes > 0.0 ? time("ml.fit_s") * 1e9 / nodes : 0.0,
       "ns"},
      {"fault.universe_s", time("fault.universe_s"), "s"},
      {"fault.classes", count("fault.classes"), "count"},
      {"fault.coverage_s", time("fault.coverage_s"), "s"},
      {"fault.faults_simulated", simulated, "count"},
      {"fault.gate_evaluations", count("fault.gate_evaluations"), "count"},
      {"fault.detect_yield",
       simulated > 0.0 ? count("fault.classes_detected") / simulated : 0.0,
       "ratio"},
      {"fault.timed_s", time("fault.timed_s"), "s"},
      {"obs.trace_overhead_pct",
       untracedWall > 0.0
           ? 100.0 * (median(tracedWalls) - untracedWall) / untracedWall
           : 0.0,
       "%"},
      {"obs.unattributed_share", cellS > 0.0 ? unattributedS / cellS : 0.0,
       "ratio"},
      {"obs.dropped_spans", static_cast<double>(dropped), "count"},
  };
  std::printf("per-layer times are busy seconds summed over a campaign's "
              "cells (median of %zu traced campaigns)\n",
              tracedReps.size());
  for (const Metric& m : result.perLayer) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printAttribution(cellSpans, "attribution (traced rebuild, % of cell time):",
                   cellS);
  printAttribution(probeSpans,
                   "probe pass (replays outside the cells, % of cell time):",
                   cellS);
  const double covered = cellS > 0.0 ? 1.0 - unattributedS / cellS : 0.0;
  std::printf("layer spans cover %.2f%% of cell time (%s 90%%)\n",
              100.0 * covered, covered >= 0.9 ? ">=" : "BELOW");
  return result;
}

void printJson(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 && tally.consistent ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string digests;
  bool verify = false;
  bool record = false;
};

bool parseArgs(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--verify") {
      args.verify = true;
      continue;
    }
    if (key == "--record-digests") {
      args.record = true;
      continue;
    }
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      error = "missing value for " + key;
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--digests") {
      args.digests = value;
    } else {
      error = "unknown flag " + key;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  return true;
}

int recordDigests() {
  const auto designs = perfbench::synthesize();
  int status = EXIT_SUCCESS;
  std::printf("# <workload> <seed> <cell> <cell-name> <digest>: FNV-1a 64 of "
              "each cell's CSV row\n");
  for (const WorkloadSpec& spec : perfbench::workloadSpecs()) {
    for (const std::uint64_t seed : {kPinnedSeed, kHeldOutSeed}) {
      const CampaignRows rows = perfbench::runPipeline(spec, designs, seed);
      (void)perfbench::drainSpans();
      for (std::size_t cell = 0; cell < rows.csv.size(); ++cell) {
        if (!rows.errors[cell].empty()) {
          std::fprintf(stderr, "cell %zu threw: %s\n", cell,
                       rows.errors[cell].c_str());
          status = EXIT_FAILURE;
        }
        std::printf("%s %" PRIu64 " %zu %s %s\n", spec.name, seed, cell,
                    rows.cellNames[cell].c_str(), digest(rows.csv[cell]).c_str());
      }
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, args, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  // The ring stays armed throughout: untraced campaigns need the grid's
  // per-cell spans, traced ones add the benchmark's layer spans.
  oisa::obs::startTracing(std::size_t{1} << 15);
  if (args.record) return recordDigests();

  DigestBook digests;
  if (!digests.load(args.digests, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::vector<const WorkloadSpec*> specs;
  if (args.verify && args.workload == "all") {
    for (const WorkloadSpec& spec : perfbench::workloadSpecs()) {
      specs.push_back(&spec);
    }
  } else if (const WorkloadSpec* spec = perfbench::findWorkload(args.workload)) {
    specs.push_back(spec);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace != 0 && args.trace != 1) {
    std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
    return 2;
  }

  if (args.verify) {
    Tally total;
    for (const WorkloadSpec* spec : specs) {
      for (const std::uint64_t seed : {kPinnedSeed, kHeldOutSeed}) {
        if (digests.find(spec->name, seed) == nullptr) {
          std::printf("FAIL no recorded digests for %s seed %" PRIu64 "\n",
                      spec->name, seed);
          total.consistent = false;
        }
        const RunResult r = runOnce(*spec, seed, 0.0, true, digests);
        total.attempted += r.tally.attempted;
        total.failed += r.tally.failed;
        total.consistent = total.consistent && r.tally.consistent;
        std::fflush(stdout);
      }
    }
    printJson(total, {});
    return total.failed == 0 && total.consistent ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  const RunResult r =
      runOnce(*specs.front(), args.seed, args.seconds, args.trace == 1, digests);
  std::fflush(stdout);
  printJson(r.tally, args.trace == 1 ? r.perLayer : r.endToEnd);
  return r.tally.failed == 0 && r.tally.consistent ? EXIT_SUCCESS
                                                   : EXIT_FAILURE;
}
