// oisa_obs: the telemetry substrate's own guarantees. Counters must be
// exact under concurrent hammering (one relaxed atomic per counter sums
// to the true total at a quiescent point), histograms must count/sum/max
// exactly with log2 bucketing, the span buffer must drop-and-count
// instead of blocking or growing on overflow, a drain must hand every
// closed span to exactly one document while spans keep closing, the JSON
// writers must emit the documented schemas (CI re-validates the
// artifacts with python -m json.tool), the BENCH_*.json emitter must
// escape every key and string it writes, and the whole substrate must
// degenerate to near-nothing when disabled. This binary is also in the
// thread-sanitizer CI leg: the hammer tests double as data-race
// detectors there.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/span.h"

#include "../bench/bench_common.h"

namespace {

using namespace oisa;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::resetMetricsForTest();
    obs::setMetricsEnabled(true);
    obs::stopTracing();
  }
  void TearDown() override {
    obs::stopTracing();
    obs::setMetricsEnabled(true);
  }
};

// --- metrics registry --------------------------------------------------

TEST_F(ObsTest, CounterSumIsExactUnderConcurrentHammer) {
  obs::Counter& c = obs::counter("test.hammer");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  // Quiescent point: every writer joined, so the value is exact.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(snap.counters.at("test.hammer"), kThreads * kPerThread);
}

TEST_F(ObsTest, CounterHandleIsStableAndInterned) {
  obs::Counter& a = obs::counter("test.same");
  obs::Counter& b = obs::counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST_F(ObsTest, DisabledMetricsRecordNothing) {
  obs::Counter& c = obs::counter("test.disabled");
  obs::Histogram& h = obs::histogram("test.disabled_hist");
  obs::setMetricsEnabled(false);
  c.add(100);
  h.record(42);
  obs::setMetricsEnabled(true);
  EXPECT_EQ(c.value(), 0u);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(snap.histograms.at("test.disabled_hist").count, 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);  // re-enabled handle keeps working
}

TEST_F(ObsTest, HistogramExactCountSumMaxAndLog2Buckets) {
  obs::Histogram& h = obs::histogram("test.hist");
  h.record(0);   // bucket 0 (zeros)
  h.record(1);   // bucket 1: [1,2)
  h.record(7);   // bucket 3: [4,8)
  h.record(8);   // bucket 4: [8,16)
  h.record(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1016u);
  EXPECT_EQ(h.max(), 1000u);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  const auto& s = snap.histograms.at("test.hist");
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1016u);
  EXPECT_EQ(s.max, 1000u);
  // Snapshot buckets carry (lower bound, count) for non-empty buckets:
  // 0 -> lower 0, 1 -> lower 1, 7 -> lower 4, 8 -> lower 8, 1000 -> 512.
  std::map<std::uint64_t, std::uint64_t> got(s.buckets.begin(),
                                             s.buckets.end());
  const std::map<std::uint64_t, std::uint64_t> want = {
      {0, 1}, {1, 1}, {4, 1}, {8, 1}, {512, 1}};
  EXPECT_EQ(got, want);
}

TEST_F(ObsTest, HistogramConcurrentHammerKeepsCountAndSumExact) {
  obs::Histogram& h = obs::histogram("test.hist_hammer");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // sum of (t+1)*kPerThread for t in [0,8) = kPerThread * 36
  EXPECT_EQ(h.sum(), kPerThread * 36);
  EXPECT_EQ(h.max(), 8u);
}

TEST_F(ObsTest, MetricsJsonCarriesSchemaMetaAndSections) {
  obs::counter("test.json_counter").add(5);
  obs::histogram("test.json_hist").record(3);
  const std::map<std::string, std::string> meta = {{"git_sha", "abc"},
                                                   {"note", "q\"uote"}};
  const std::string doc = obs::metricsJson(obs::snapshotMetrics(), meta);
  EXPECT_NE(doc.find("\"schema\": \"oisa-metrics-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\": \"abc\""), std::string::npos);
  EXPECT_NE(doc.find("q\\\"uote"), std::string::npos);  // escaped
  EXPECT_NE(doc.find("\"test.json_counter\": 5"), std::string::npos);
  EXPECT_NE(doc.find("\"test.json_hist\""), std::string::npos);
}

TEST_F(ObsTest, JsonEscaping) {
  std::string out;
  obs::appendJsonEscaped(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST_F(ObsTest, RunMetadataHasTheAttributionKeys) {
  const auto meta = obs::runMetadata();
  EXPECT_EQ(meta.count("git_sha"), 1u);
  EXPECT_EQ(meta.count("hostname"), 1u);
  EXPECT_EQ(meta.count("pid"), 1u);
  EXPECT_EQ(meta.count("hw_threads"), 1u);
  EXPECT_FALSE(meta.at("git_sha").empty());
}

TEST(RunMetaTest, GitShaComesFromTheEnvironmentAtRunTime) {
  // OISA_GIT_SHA wins over GITHUB_SHA, an empty variable counts as unset,
  // and with neither set the sha is "unknown": no build-time stamp can
  // outlive the commit it was taken at.
  const auto saved = [](const char* var) -> std::optional<std::string> {
    const char* value = std::getenv(var);
    return value != nullptr ? std::optional<std::string>(value)
                            : std::nullopt;
  };
  const auto oisaSha = saved("OISA_GIT_SHA");
  const auto githubSha = saved("GITHUB_SHA");

  ::setenv("OISA_GIT_SHA", "from-oisa", 1);
  ::setenv("GITHUB_SHA", "from-github", 1);
  EXPECT_EQ(obs::gitSha(), "from-oisa");
  ::setenv("OISA_GIT_SHA", "", 1);
  EXPECT_EQ(obs::gitSha(), "from-github");
  ::unsetenv("OISA_GIT_SHA");
  EXPECT_EQ(obs::gitSha(), "from-github");
  ::unsetenv("GITHUB_SHA");
  EXPECT_EQ(obs::gitSha(), "unknown");
  EXPECT_EQ(obs::runMetadata().at("git_sha"), "unknown");

  for (const auto& [var, value] :
       {std::pair{"OISA_GIT_SHA", oisaSha}, std::pair{"GITHUB_SHA", githubSha}}) {
    if (value) {
      ::setenv(var, value->c_str(), 1);
    } else {
      ::unsetenv(var);
    }
  }
}

// --- span tracing ------------------------------------------------------

TEST_F(ObsTest, SpansRecordNameCategoryDurationAndNesting) {
  obs::startTracing();
  {
    const obs::ObsSpan outer("outer", "test");
    const obs::ObsSpan inner("inner", "test", "cells", 42);
  }
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  // Chrome trace-event format: inner closes first (depth 1), then outer
  // (depth 0).
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  const std::size_t innerPos = doc.find("\"name\": \"inner\"");
  const std::size_t outerPos = doc.find("\"name\": \"outer\"");
  ASSERT_NE(innerPos, std::string::npos);
  ASSERT_NE(outerPos, std::string::npos);
  EXPECT_LT(innerPos, outerPos);
  EXPECT_NE(doc.find("\"cells\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"depth\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema\": \"oisa-trace-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST_F(ObsTest, ArgumentsAddedAfterOpeningLandOnTheSpan) {
  // A scope that learns its numbers while it runs (e.g. the size of what
  // it built) attaches them before closing.
  obs::startTracing();
  {
    obs::ObsSpan span("built", "test", "cells", 7);
    span.arg("gates", 421);
  }
  {
    obs::ObsSpan span("late", "test");
    span.arg("gates", 93);
    span.arg("history", 4);
  }
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  EXPECT_NE(doc.find("\"cells\": 7, \"gates\": 421}"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"gates\": 93, \"history\": 4}"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"dropped_args\": 0,"), std::string::npos) << doc;
}

TEST_F(ObsTest, FourArgumentsLandAndAFifthIsCounted) {
  obs::startTracing();
  {
    obs::ObsSpan span("coverage", "test", "cells", 7);
    span.arg("swept", 421);
    span.arg("skipped", 2);
    span.arg("untestable", 5);
    span.arg("recomputes", 3);  // past the four slots: counted, not kept
  }
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  // Still one event per line, carrying what perfbench/spans.cpp parses.
  const std::size_t line = doc.find("{\"name\": \"coverage\"");
  ASSERT_NE(line, std::string::npos) << doc;
  const std::string event = doc.substr(line, doc.find('\n', line) - line);
  for (const char* key :
       {"\"ts\": ", "\"dur\": ", "\"tid\": ", "\"depth\": 0"}) {
    EXPECT_NE(event.find(key), std::string::npos) << key << " in " << event;
  }
  EXPECT_NE(event.find("\"cells\": 7, \"swept\": 421, \"skipped\": 2, "
                       "\"untestable\": 5}}"),
            std::string::npos)
      << event;
  EXPECT_EQ(doc.find("recomputes"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"dropped\": 0, \"dropped_args\": 1, "),
            std::string::npos)
      << doc;
  // A new session starts its count afresh.
  obs::startTracing();
  EXPECT_NE(obs::drainTraceJson().find("\"dropped_args\": 0,"),
            std::string::npos);
  obs::stopTracing();
}

TEST_F(ObsTest, DisarmedSpansCostNothingAndRecordNothing) {
  // No startTracing: spans are disarmed no-ops.
  {
    const obs::ObsSpan span("ghost", "test");
  }
  obs::startTracing();
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  EXPECT_EQ(doc.find("ghost"), std::string::npos);
  EXPECT_NE(doc.find("\"drained\": 0"), std::string::npos);
}

TEST_F(ObsTest, RingOverflowDropsAndCountsInsteadOfBlocking) {
  obs::startTracing(8);  // tiny ring: capacity rounds to 8
  for (int i = 0; i < 100; ++i) {
    const obs::ObsSpan span("evt", "test");
  }
  EXPECT_EQ(obs::traceDropped(), 100u - 8u);
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  EXPECT_NE(doc.find("\"dropped\": 92"), std::string::npos);
  EXPECT_NE(doc.find("\"drained\": 8"), std::string::npos);
}

TEST_F(ObsTest, ConcurrentSpansAllLandWhenTheRingIsLargeEnough) {
  obs::startTracing(1 << 12);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        const obs::ObsSpan span("par", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::traceDropped(), 0u);
  const std::string doc = obs::drainTraceJson();
  obs::stopTracing();
  std::ostringstream want;
  want << "\"drained\": " << kThreads * kPerThread;
  EXPECT_NE(doc.find(want.str()), std::string::npos);
}

TEST_F(ObsTest, StopStartTracingIsSafeWhileSpansRace) {
  // Lifetime guarantee under TSan and ASan: a span close appends under
  // the session mutex that start and stop free the buffer under, so spans
  // closing on four threads across stops, starts, drains and drop counts
  // never touch a freed buffer.
  std::atomic<bool> stop{false};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 4; ++t) {
    spanners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::ObsSpan outer("racer", "test");
        const obs::ObsSpan inner("inner", "test");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    obs::startTracing(64);
    if (i % 4 == 0) (void)obs::drainTraceJson();
    (void)obs::traceDropped();
    obs::stopTracing();
  }
  stop.store(true);
  for (auto& t : spanners) t.join();
}

/// The unsigned number after `key` at or past `from` in `doc`.
std::uint64_t numberAfter(const std::string& doc, const std::string& key,
                          std::size_t from = 0) {
  const std::size_t at = doc.find(key, from);
  EXPECT_NE(at, std::string::npos) << key << " in " << doc;
  return at == std::string::npos
             ? 0
             : std::stoull(doc.substr(at + key.size(), 20));
}

TEST_F(ObsTest, DrainsWhileSpansCloseHandEverySpanToExactlyOneDocument) {
  // A drain copies the recorded events out and empties the buffer under
  // the session mutex, so with four threads closing spans while the main
  // thread drains, each span lands in exactly one document: the drained
  // counts sum to the spans closed and every span's id appears once.
  // Halfway through, each thread waits for two more drains: the second
  // starts after the thread's first half closed, so every thread's spans
  // reach at least two documents.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  obs::startTracing(kThreads * kPerThread);  // room for all: no drops
  std::atomic<int> running{kThreads};
  std::atomic<int> drains{0};
  std::vector<std::thread> spanners;
  for (int t = 0; t < kThreads; ++t) {
    spanners.emplace_back([&running, &drains, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if (i == kPerThread / 2) {
          const int seen = drains.load();
          while (drains.load() < seen + 2) std::this_thread::yield();
        }
        const obs::ObsSpan span("drained", "test", "id",
                                static_cast<std::uint64_t>(t) * kPerThread + i);
      }
      running.fetch_sub(1);
    });
  }
  std::vector<std::string> docs;
  while (running.load() > 0) {
    docs.push_back(obs::drainTraceJson());
    drains.fetch_add(1);
  }
  for (auto& t : spanners) t.join();
  docs.push_back(obs::drainTraceJson());  // whatever closed after the last
  obs::stopTracing();

  std::uint64_t drained = 0;
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const std::string& doc : docs) {
    drained += numberAfter(doc, "\"drained\": ");
    EXPECT_EQ(numberAfter(doc, "\"dropped\": "), 0u);
    for (std::size_t at = doc.find("\"id\": "); at != std::string::npos;
         at = doc.find("\"id\": ", at + 1)) {
      const std::uint64_t id = numberAfter(doc, "\"id\": ", at);
      ASSERT_LT(id, seen.size());
      ++seen[id];
    }
  }
  EXPECT_GT(docs.size(), 1u);
  EXPECT_EQ(drained, kThreads * kPerThread);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(seen.size()));
}

TEST_F(ObsTest, SessionsFreeTheirRings) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer allocator holds freed memory back";
#endif
  const auto peakRssMb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  };
  // A buffer's pages stay untouched until spans land in them, so each
  // session fills its 4,096-event buffer (576 KiB): 101 sessions that
  // kept their buffers would grow the peak by ~58 MB.
  constexpr int kEvents = 1 << 12;
  const double before = peakRssMb();
  for (int session = 0; session < 101; ++session) {
    obs::startTracing(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      const obs::ObsSpan span("session", "test");
    }
    obs::stopTracing();
  }
  EXPECT_LT(peakRssMb() - before, 4.0);
}

TEST_F(ObsTest, TraceBufferAboveItsCapIsRejectedByName) {
  // 2^64 - 1 used to overflow the power-of-two round-up (a spin at 100%
  // CPU, or a one-event buffer), and 2^62 failed the reservation with an
  // error naming no flag.
  for (const char* flag :
       {"--trace-buffer=1048577", "--trace-buffer=4611686018427387904",
        "--trace-buffer=18446744073709551615"}) {
    const char* argv[] = {"prog", "--trace-out=unused.json", flag};
    const experiments::ArgParser args(3, argv);
    try {
      (void)bench::beginObs(args);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const core::StatusError& e) {
      EXPECT_NE(std::string(e.what()).find("--trace-buffer"),
                std::string::npos)
          << e.what();
    }
  }
  const char* argv[] = {"prog", "--trace-out=unused.json",
                        "--trace-buffer=1048576"};
  (void)bench::beginObs(experiments::ArgParser(3, argv));
  {
    const obs::ObsSpan span("capped", "test");
  }
  EXPECT_NE(obs::drainTraceJson().find("\"drained\": 1}"), std::string::npos);
}

TEST_F(ObsTest, WriteTraceJsonRoundTripsThroughAFile) {
  obs::startTracing();
  {
    const obs::ObsSpan span("file_span", "test");
  }
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(obs::writeTraceJson(path).isOk());
  obs::stopTracing();
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_NE(buf.str().find("\"file_span\""), std::string::npos);
  std::remove(path.c_str());
}

// --- bench JSON ----------------------------------------------------------

/// Decodes the JSON string literal starting at doc[at] (the opening
/// quote) and leaves `at` past its closing quote. Fails the test on
/// anything a JSON parser would reject.
std::string decodeJsonString(const std::string& doc, std::size_t& at) {
  std::string out;
  EXPECT_EQ(doc.at(at), '"');
  for (++at; at < doc.size() && doc[at] != '"'; ++at) {
    const char ch = doc[at];
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "raw control char";
    if (ch != '\\') {
      out += ch;
      continue;
    }
    const char esc = doc.at(++at);
    switch (esc) {
      case '"': case '\\': case '/': out += esc; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(doc.substr(at + 1, 4), nullptr, 16));
        at += 4;
        break;
      default: ADD_FAILURE() << "bad escape \\" << esc;
    }
  }
  EXPECT_LT(at, doc.size()) << "unterminated string";
  ++at;
  return out;
}

/// Parses BenchJson's flat object into key -> raw value (strings
/// decoded, numbers verbatim).
std::map<std::string, std::string> parseFlatJson(const std::string& doc) {
  std::map<std::string, std::string> fields;
  std::size_t at = 0;
  EXPECT_EQ(doc.at(at++), '{');
  while (at < doc.size() && doc[at] != '}') {
    const std::string key = decodeJsonString(doc, at);
    EXPECT_EQ(doc.substr(at, 2), ": ");
    at += 2;
    if (doc.at(at) == '"') {
      fields[key] = decodeJsonString(doc, at);
    } else {
      const std::size_t end = doc.find_first_of(",}", at);
      fields[key] = doc.substr(at, end - at);
      at = end;
    }
    if (doc.at(at) == ',') at += 2;  // ", "
  }
  EXPECT_EQ(doc.substr(at), "}\n");
  return fields;
}

TEST_F(ObsTest, BenchJsonEscapesKeysAndStringValues) {
  const std::string value = "abc\"\\x\x01\ny";
  bench::BenchJson json("micro\"test");
  json.add("git_sha", value).add("odd\\key", std::uint64_t{7});
  const std::map<std::string, std::string> fields = parseFlatJson(json.str());
  EXPECT_EQ(fields.at("bench"), "micro\"test");
  EXPECT_EQ(fields.at("git_sha"), value);
  EXPECT_EQ(fields.at("odd\\key"), "7");
}

}  // namespace
