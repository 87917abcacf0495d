#include "obs/span.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>
#include <vector>

#include "core/file_publish.h"
#include "obs/metrics.h"

namespace oisa::obs {

namespace {

std::atomic<bool> gTracing{false};
std::atomic<std::int64_t> gSessionStartNs{0};
std::atomic<std::uint64_t> gDroppedArgs{0};  // this session's, see arg()

// One tracing session: the events closed since the last drain, in a
// buffer reserved to `capacity` at start that never grows past it.
struct Session {
  std::vector<TraceEvent> events;
  std::size_t capacity = 0;  ///< 0 when no session is armed
  std::uint64_t dropped = 0;
};

// Serializes everything that touches gSession: start, stop, drain, the
// drop count and every span close's append.
std::mutex gSessionMu;
Session gSession;

std::uint64_t nowUs() noexcept {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const std::int64_t start = gSessionStartNs.load(std::memory_order_relaxed);
  return static_cast<std::uint64_t>(ns > start ? (ns - start) / 1000 : 0);
}

// Per-thread trace state: a dense tid (assigned in order of first traced
// span) and the nesting depth of the thread's open spans.
struct ThreadTraceState {
  std::uint32_t tid;
  std::uint32_t depth = 0;

  ThreadTraceState() {
    static std::atomic<std::uint32_t> next{0};
    tid = next.fetch_add(1, std::memory_order_relaxed);
  }
};

ThreadTraceState& threadTraceState() noexcept {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace

void startTracing(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(gSessionMu);
  gSession = Session{};  // frees the previous buffer before reserving
  gSession.capacity = std::bit_ceil(std::max(capacity, std::size_t{8}));
  gSession.events.reserve(gSession.capacity);
  gSessionStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_relaxed);
  gDroppedArgs.store(0, std::memory_order_relaxed);
  gTracing.store(true, std::memory_order_relaxed);
}

void stopTracing() {
  const std::lock_guard<std::mutex> lock(gSessionMu);
  gTracing.store(false, std::memory_order_relaxed);
  gSession = Session{};
}

std::uint64_t traceDropped() noexcept {
  const std::lock_guard<std::mutex> lock(gSessionMu);
  return gSession.dropped;
}

ObsSpan::ObsSpan(const char* name, const char* cat, const char* argKey,
                 std::uint64_t argValue) noexcept {
  if (!gTracing.load(std::memory_order_relaxed)) return;
  armed_ = true;
  name_ = name;
  cat_ = cat;
  argKeys_[0] = argKey;
  argValues_[0] = argValue;
  ThreadTraceState& state = threadTraceState();
  depth_ = state.depth++;
  startUs_ = nowUs();
}

ObsSpan::~ObsSpan() {
  if (!armed_) return;
  const std::uint64_t end = nowUs();
  ThreadTraceState& state = threadTraceState();
  if (state.depth > 0) --state.depth;
  TraceEvent ev{};  // zeroed, so the truncated name stays terminated
  std::strncpy(ev.name, name_, TraceEvent::kNameCapacity - 1);
  ev.cat = cat_;
  ev.tsUs = startUs_;
  ev.durUs = end > startUs_ ? end - startUs_ : 0;
  ev.tid = state.tid;
  ev.depth = depth_;
  ev.argKeys = argKeys_;
  ev.argValues = argValues_;
  const std::lock_guard<std::mutex> lock(gSessionMu);
  if (gSession.events.size() < gSession.capacity) {
    gSession.events.push_back(ev);  // within the reservation: no allocation
  } else if (gSession.capacity != 0) {
    ++gSession.dropped;  // full buffer => counted drop, never a stall
  }
}

void ObsSpan::arg(const char* key, std::uint64_t value) noexcept {
  if (!armed_) return;
  for (std::size_t i = 0; i < argKeys_.size(); ++i) {
    if (argKeys_[i] == nullptr) {
      argKeys_[i] = key;
      argValues_[i] = value;
      return;
    }
  }
  gDroppedArgs.fetch_add(1, std::memory_order_relaxed);
}

std::string drainTraceJson() {
  // Copy out under the lock and format outside it, so spans closing on
  // other threads wait for one copy, not for the JSON. clear() keeps the
  // reservation: freeing a multi-megabyte block here would raise glibc's
  // mmap threshold and leave later large buffers resident.
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::uint64_t droppedArgs = 0;
  {
    const std::lock_guard<std::mutex> lock(gSessionMu);
    events.assign(gSession.events.begin(), gSession.events.end());
    gSession.events.clear();
    dropped = gSession.dropped;
    droppedArgs = gDroppedArgs.load(std::memory_order_relaxed);
  }
  std::string out = "{\n\"traceEvents\": [";
  const int pid = static_cast<int>(::getpid());
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\": \"";
    appendJsonEscaped(out, ev.name);
    out += "\", \"cat\": \"";
    appendJsonEscaped(out, ev.cat != nullptr ? ev.cat : "");
    out += "\", \"ph\": \"X\", \"ts\": " + std::to_string(ev.tsUs) +
           ", \"dur\": " + std::to_string(ev.durUs);
    out += ", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(ev.tid) + ", \"args\": {\"depth\": " +
           std::to_string(ev.depth);
    for (std::size_t i = 0; i < ev.argKeys.size(); ++i) {
      if (ev.argKeys[i] == nullptr) continue;
      out += ", \"";
      appendJsonEscaped(out, ev.argKeys[i]);
      out += "\": " + std::to_string(ev.argValues[i]);
    }
    out += "}}";
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  out += "\"schema\": \"oisa-trace-v1\", \"dropped\": " +
         std::to_string(dropped) +
         ", \"dropped_args\": " + std::to_string(droppedArgs) +
         ", \"drained\": " + std::to_string(events.size()) + "}\n}\n";
  return out;
}

core::Status writeTraceJson(const std::string& path) {
  const std::string doc = drainTraceJson();
  return core::writeFile(path, doc);
}

}  // namespace oisa::obs
