#include "obs/span.h"

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "core/file_publish.h"
#include "obs/metrics.h"

namespace oisa::obs {

namespace {

std::atomic<bool> gTracing{false};
std::atomic<TraceRing*> gRing{nullptr};
std::atomic<std::int64_t> gSessionStartNs{0};
std::atomic<std::uint64_t> gDroppedArgs{0};  // this session's, see arg()
// pushEvent calls in flight. A pusher counts itself before it loads
// gRing, so once a ring is unpublished, a zero here means no pusher can
// still hold it.
std::atomic<std::uint64_t> gPushers{0};
// Serializes the session calls: start, stop, drain and the drop count.
std::mutex gSessionMu;

/// Unpublishes the current ring and frees it once no pusher can hold it.
/// The caller holds gSessionMu and has disarmed tracing, so only spans
/// armed before can still push, and the wait is short.
void retireRing() {
  TraceRing* old = gRing.exchange(nullptr, std::memory_order_seq_cst);
  if (old == nullptr) return;
  while (gPushers.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  delete old;
}

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

void pushEvent(const char* name, const char* cat, std::uint64_t tsUs,
               std::uint64_t durUs, std::uint32_t depth,
               const TraceEvent::ArgKeys& argKeys,
               const TraceEvent::ArgValues& argValues) noexcept {
  TraceEvent ev{};
  std::strncpy(ev.name, name, TraceEvent::kNameCapacity - 1);
  ev.name[TraceEvent::kNameCapacity - 1] = '\0';
  ev.cat = cat;
  ev.tsUs = tsUs;
  ev.durUs = durUs;
  ev.tid = threadTraceState().tid;
  ev.depth = depth;
  ev.argKeys = argKeys;
  ev.argValues = argValues;
  gPushers.fetch_add(1, std::memory_order_seq_cst);
  if (TraceRing* ring = gRing.load(std::memory_order_seq_cst)) {
    (void)ring->tryPush(ev);  // full ring => counted drop, never a stall
  }
  gPushers.fetch_sub(1, std::memory_order_release);
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(capacity < 8 ? std::size_t{8}
                                                     : capacity);
  mask_ = cap - 1;
  seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
  events_ = std::make_unique_for_overwrite<TraceEvent[]>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    seq_[i].store(i, std::memory_order_relaxed);
  }
}

bool TraceRing::tryPush(const TraceEvent& ev) noexcept {
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    std::atomic<std::uint64_t>& slotSeq = seq_[pos & mask_];
    const std::uint64_t seq = slotSeq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        events_[pos & mask_] = ev;
        slotSeq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS lost: pos was reloaded; retry with the new position.
    } else if (dif < 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;  // full
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool TraceRing::tryPop(TraceEvent& out) noexcept {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  for (;;) {
    std::atomic<std::uint64_t>& slotSeq = seq_[pos & mask_];
    const std::uint64_t seq = slotSeq.load(std::memory_order_acquire);
    const std::int64_t dif = static_cast<std::int64_t>(seq) -
                             static_cast<std::int64_t>(pos + 1);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        out = events_[pos & mask_];
        slotSeq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // empty
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
}

void startTracing(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(gSessionMu);
  gTracing.store(false, std::memory_order_relaxed);
  retireRing();
  gSessionStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_relaxed);
  gDroppedArgs.store(0, std::memory_order_relaxed);
  gRing.store(new TraceRing(capacity), std::memory_order_release);
  gTracing.store(true, std::memory_order_release);
}

void stopTracing() {
  std::lock_guard<std::mutex> lock(gSessionMu);
  gTracing.store(false, std::memory_order_relaxed);
  retireRing();
}

std::uint64_t traceDropped() noexcept {
  const std::lock_guard<std::mutex> lock(gSessionMu);
  const TraceRing* ring = gRing.load(std::memory_order_relaxed);
  return ring != nullptr ? ring->dropped() : 0;
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
  pushEvent(name_, cat_, startUs_, end > startUs_ ? end - startUs_ : 0,
            depth_, argKeys_, argValues_);
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
  const std::lock_guard<std::mutex> lock(gSessionMu);
  TraceRing* ring = gRing.load(std::memory_order_relaxed);
  std::string out = "{\n\"traceEvents\": [";
  const int pid = static_cast<int>(::getpid());
  bool first = true;
  TraceEvent ev{};
  std::uint64_t drained = 0;
  // At most one ring's worth: spans that keep closing on other threads
  // cannot hold the drain (and the session lock) indefinitely.
  while (ring != nullptr && drained < ring->capacity() && ring->tryPop(ev)) {
    if (!first) out += ',';
    first = false;
    ++drained;
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
         std::to_string(ring != nullptr ? ring->dropped() : 0) +
         ", \"dropped_args\": " +
         std::to_string(gDroppedArgs.load(std::memory_order_relaxed)) +
         ", \"drained\": " + std::to_string(drained) + "}\n}\n";
  return out;
}

core::Status writeTraceJson(const std::string& path) {
  const std::string doc = drainTraceJson();
  return core::writeFile(path, doc);
}

}  // namespace oisa::obs
