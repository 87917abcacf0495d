#include "obs/span.h"

#include <unistd.h>

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
std::atomic<TraceRing*> gRing{nullptr};
std::atomic<std::int64_t> gSessionStartNs{0};

// Rings are retired, never freed: a span racing stopTracing() may still
// hold the old pointer, and the handful of sessions a process starts
// (one per CLI run, a few per test binary) make the leak irrelevant.
std::vector<TraceRing*>& retiredRings() {
  static std::vector<TraceRing*>* v = new std::vector<TraceRing*>();
  return *v;
}
std::mutex gSessionMu;

std::uint64_t nowUs() noexcept {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const std::int64_t start = gSessionStartNs.load(std::memory_order_relaxed);
  return static_cast<std::uint64_t>(ns > start ? (ns - start) / 1000 : 0);
}

// Per-thread trace state: a dense tid (assigned in order of first traced
// span) and the span stack the nesting depth comes from.
struct ThreadTraceState {
  static constexpr std::uint32_t kMaxStack = 32;
  std::uint32_t tid;
  std::uint32_t depth = 0;
  const char* stack[kMaxStack] = {};

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
               std::uint64_t durUs, std::uint32_t depth, const char* argKey,
               std::uint64_t argValue, char phase) noexcept {
  TraceRing* ring = gRing.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  TraceEvent ev;
  std::strncpy(ev.name, name, TraceEvent::kNameCapacity - 1);
  ev.name[TraceEvent::kNameCapacity - 1] = '\0';
  ev.cat = cat;
  ev.tsUs = tsUs;
  ev.durUs = durUs;
  ev.tid = threadTraceState().tid;
  ev.depth = depth;
  ev.argKey = argKey;
  ev.argValue = argValue;
  ev.phase = phase;
  (void)ring->tryPush(ev);  // full ring => counted drop, never a stall
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(capacity < 8 ? std::size_t{8}
                                                     : capacity);
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool TraceRing::tryPush(const TraceEvent& ev) noexcept {
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.ev = ev;
        slot.seq.store(pos + 1, std::memory_order_release);
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
    Slot& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const std::int64_t dif = static_cast<std::int64_t>(seq) -
                             static_cast<std::int64_t>(pos + 1);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        out = slot.ev;
        slot.seq.store(pos + mask_ + 1, std::memory_order_release);
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
  if (TraceRing* old = gRing.load(std::memory_order_relaxed)) {
    gTracing.store(false, std::memory_order_relaxed);
    gRing.store(nullptr, std::memory_order_release);
    retiredRings().push_back(old);
  }
  gSessionStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_relaxed);
  gRing.store(new TraceRing(capacity), std::memory_order_release);
  gTracing.store(true, std::memory_order_release);
}

void stopTracing() {
  std::lock_guard<std::mutex> lock(gSessionMu);
  gTracing.store(false, std::memory_order_relaxed);
  if (TraceRing* old = gRing.load(std::memory_order_relaxed)) {
    gRing.store(nullptr, std::memory_order_release);
    retiredRings().push_back(old);
  }
}

bool tracingEnabled() noexcept {
  return gTracing.load(std::memory_order_relaxed);
}

std::uint64_t traceDropped() noexcept {
  const TraceRing* ring = gRing.load(std::memory_order_acquire);
  return ring != nullptr ? ring->dropped() : 0;
}

ObsSpan::ObsSpan(const char* name, const char* cat, const char* argKey,
                 std::uint64_t argValue) noexcept {
  if (!gTracing.load(std::memory_order_relaxed)) return;
  armed_ = true;
  name_ = name;
  cat_ = cat;
  argKey_ = argKey;
  argValue_ = argValue;
  ThreadTraceState& state = threadTraceState();
  depth_ = state.depth;
  if (state.depth < ThreadTraceState::kMaxStack) {
    state.stack[state.depth] = name;
  }
  ++state.depth;
  startUs_ = nowUs();
}

ObsSpan::~ObsSpan() {
  if (!armed_) return;
  const std::uint64_t end = nowUs();
  ThreadTraceState& state = threadTraceState();
  if (state.depth > 0) {
    --state.depth;
    if (state.depth < ThreadTraceState::kMaxStack) {
      state.stack[state.depth] = nullptr;
    }
  }
  pushEvent(name_, cat_, startUs_, end > startUs_ ? end - startUs_ : 0,
            depth_, argKey_, argValue_, 'X');
}

void traceInstant(const char* name, const char* cat) noexcept {
  if (!gTracing.load(std::memory_order_relaxed)) return;
  pushEvent(name, cat, nowUs(), 0, threadTraceState().depth, nullptr, 0, 'i');
}

std::string drainTraceJson() {
  TraceRing* ring = gRing.load(std::memory_order_acquire);
  std::string out = "{\n\"traceEvents\": [";
  const int pid = static_cast<int>(::getpid());
  bool first = true;
  TraceEvent ev;
  std::uint64_t drained = 0;
  while (ring != nullptr && ring->tryPop(ev)) {
    if (!first) out += ',';
    first = false;
    ++drained;
    out += "\n{\"name\": \"";
    appendJsonEscaped(out, ev.name);
    out += "\", \"cat\": \"";
    appendJsonEscaped(out, ev.cat != nullptr ? ev.cat : "");
    out += "\", \"ph\": \"";
    out += ev.phase;
    out += "\", \"ts\": " + std::to_string(ev.tsUs);
    if (ev.phase == 'X') {
      out += ", \"dur\": " + std::to_string(ev.durUs);
    } else {
      out += ", \"s\": \"t\"";
    }
    out += ", \"pid\": " + std::to_string(pid) +
           ", \"tid\": " + std::to_string(ev.tid) + ", \"args\": {\"depth\": " +
           std::to_string(ev.depth);
    if (ev.argKey != nullptr) {
      out += ", \"";
      appendJsonEscaped(out, ev.argKey);
      out += "\": " + std::to_string(ev.argValue);
    }
    out += "}}";
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  out += "\"schema\": \"oisa-trace-v1\", \"dropped\": " +
         std::to_string(ring != nullptr ? ring->dropped() : 0) +
         ", \"drained\": " + std::to_string(drained) + "}\n}\n";
  return out;
}

core::Status writeTraceJson(const std::string& path) {
  const std::string doc = drainTraceJson();
  return core::writeFile(path, doc);
}

}  // namespace oisa::obs
