#include "util/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.hpp"
#include "util/options.hpp"

namespace fghp::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

constexpr std::size_t kDefaultCapacity = 1u << 15;  // 32768 events per thread

using Kind = EventKind;

struct Event {
  std::uint64_t start = 0;  ///< ns since trace epoch
  std::uint64_t dur = 0;    ///< ns, spans only
  const char* cat = nullptr;
  const char* name = nullptr;
  const char* k0 = nullptr;
  const char* k1 = nullptr;
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
  double value = 0.0;  ///< counters only
  Kind kind = Kind::kInstant;
};

/// One fixed-capacity ring per thread. The owning thread is the only writer;
/// the head counter is monotonic, so slot (head % cap) always holds the
/// newest event and overflow silently retires the oldest. Readers snapshot
/// head with acquire ordering and walk the live window — consistent whenever
/// the writer is quiescent (the exporters' documented contract).
class ThreadBuffer {
 public:
  ThreadBuffer(std::uint32_t tid, std::size_t cap) : tid_(tid), slots_(cap) {}

  void push(const Event& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(h % slots_.size())] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint32_t tid() const { return tid_; }

  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return slots_.size(); }
  const Event& slot(std::uint64_t i) const {
    return slots_[static_cast<std::size_t>(i % slots_.size())];
  }

 private:
  std::uint32_t tid_;
  std::vector<Event> slots_;
  std::atomic<std::uint64_t> head_{0};
};

struct Registry {
  std::mutex mu;
  // shared_ptr keeps a buffer alive for export after its thread exits.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = 0;  // 0 = not yet resolved (env / default)
  // Bumped by enable(new capacity) / reset(); stale thread-local buffers
  // re-register on their next emit.
  std::atomic<std::uint64_t> epoch{1};
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local std::shared_ptr<ThreadBuffer> t_buf;
thread_local std::uint64_t t_epoch = 0;

/// The always-on activity stack: the names of the spans currently open on
/// this thread, innermost last. Fixed capacity, no allocation; depth keeps
/// counting past kMaxDepth so pushes and pops stay balanced, with the
/// overflow levels simply unnamed. `slot` (when a watchdog registered one)
/// mirrors the innermost name for cross-thread readers.
struct ActivityState {
  static constexpr int kMaxDepth = 32;
  const char* names[kMaxDepth] = {};
  int depth = 0;
  std::atomic<const char*>* slot = nullptr;

  const char* top() const {
    return depth > 0 ? names[std::min(depth, kMaxDepth) - 1] : nullptr;
  }
  void publish() const {
    if (slot != nullptr) slot->store(top(), std::memory_order_release);
  }
};

thread_local ActivityState t_activity;

ThreadBuffer& local_buffer() {
  Registry& r = registry();
  const std::uint64_t ep = r.epoch.load(std::memory_order_acquire);
  if (t_epoch != ep || t_buf == nullptr) {
    std::lock_guard<std::mutex> lk(r.mu);
    auto buf = std::make_shared<ThreadBuffer>(static_cast<std::uint32_t>(r.buffers.size()),
                                              r.capacity == 0 ? kDefaultCapacity : r.capacity);
    r.buffers.push_back(buf);
    t_buf = std::move(buf);
    t_epoch = ep;
  }
  return *t_buf;
}

std::string& export_path() {
  static std::string path;
  return path;
}

/// FGHP_TRACE=path turns tracing on for the whole process and registers an
/// atexit export, so any repo binary is traceable with no code changes.
struct EnvInit {
  EnvInit() {
    const auto path = env_str("FGHP_TRACE");
    if (!path) return;
    export_path() = *path;
    enable();
    std::atexit([] {
      try {
        write_chrome_trace_file(export_path());
      } catch (...) {
        // Exit-time export is best-effort; never abort the process over it.
      }
    });
  }
};
const EnvInit g_envInit;

}  // namespace

namespace detail {

void emit_span(const char* cat, const char* name, std::uint64_t startNs,
               std::uint64_t endNs, const char* k0, std::int64_t v0, const char* k1,
               std::int64_t v1) {
  Event e;
  e.kind = Kind::kSpan;
  e.start = startNs;
  e.dur = endNs >= startNs ? endNs - startNs : 0;
  e.cat = cat;
  e.name = name;
  e.k0 = k0;
  e.v0 = v0;
  e.k1 = k1;
  e.v1 = v1;
  local_buffer().push(e);
}

void emit_instant(const char* cat, const char* name, const char* k0, std::int64_t v0,
                  const char* k1, std::int64_t v1) {
  Event e;
  e.kind = Kind::kInstant;
  e.start = now_ns();
  e.cat = cat;
  e.name = name;
  e.k0 = k0;
  e.v0 = v0;
  e.k1 = k1;
  e.v1 = v1;
  local_buffer().push(e);
}

void emit_counter(const char* cat, const char* name, double value, const char* k0,
                  std::int64_t v0) {
  Event e;
  e.kind = Kind::kCounter;
  e.start = now_ns();
  e.cat = cat;
  e.name = name;
  e.value = value;
  e.k0 = k0;
  e.v0 = v0;
  local_buffer().push(e);
}

void activity_push(const char* name) {
  ActivityState& a = t_activity;
  if (a.depth < ActivityState::kMaxDepth) a.names[a.depth] = name;
  ++a.depth;
  a.publish();
}

void activity_pop() {
  ActivityState& a = t_activity;
  if (a.depth > 0) --a.depth;
  a.publish();
}

}  // namespace detail

const char* current_activity() { return t_activity.top(); }

void publish_activity(std::atomic<const char*>* slot) {
  ActivityState& a = t_activity;
  if (a.slot != nullptr && a.slot != slot)
    a.slot->store(nullptr, std::memory_order_release);
  a.slot = slot;
  a.publish();
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void enable(std::size_t perThreadCapacity) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::size_t cap = perThreadCapacity;
  if (cap == 0) {
    cap = r.capacity != 0
              ? r.capacity
              : static_cast<std::size_t>(std::max(
                    16L, env_long("FGHP_TRACE_CAP",
                                  static_cast<long>(kDefaultCapacity))));
  }
  cap = std::max<std::size_t>(cap, 4);
  if (cap != r.capacity) {
    r.capacity = cap;
    r.buffers.clear();
    r.epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

void disable() { detail::g_enabled.store(false, std::memory_order_release); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.buffers.clear();
  r.epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::size_t n = 0;
  for (const auto& b : r.buffers)
    n += static_cast<std::size_t>(std::min<std::uint64_t>(b->head(), b->capacity()));
  return n;
}

std::uint64_t dropped_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.buffers) {
    const std::uint64_t head = b->head();
    if (head > b->capacity()) n += head - b->capacity();
  }
  return n;
}

std::vector<EventView> snapshot_events() {
  std::vector<EventView> views;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& b : r.buffers) {
      const std::uint64_t head = b->head();
      const std::uint64_t lo = head > b->capacity() ? head - b->capacity() : 0;
      for (std::uint64_t i = lo; i < head; ++i) {
        const Event& e = b->slot(i);
        EventView v;
        v.kind = e.kind;
        v.tid = b->tid();
        v.startNs = e.start;
        v.durNs = e.dur;
        v.cat = e.cat;
        v.name = e.name;
        v.k0 = e.k0;
        v.k1 = e.k1;
        v.v0 = e.v0;
        v.v1 = e.v1;
        v.value = e.value;
        views.push_back(v);
      }
    }
  }
  std::stable_sort(views.begin(), views.end(),
                   [](const EventView& a, const EventView& b) {
                     return a.startNs < b.startNs;
                   });
  return views;
}

void write_chrome_trace(std::ostream& out) {
  // dropped_count() takes the registry lock after the snapshot released it;
  // both calls see the same state under the exporters' quiescence contract.
  const std::vector<EventView> views = snapshot_events();
  const std::uint64_t dropped = dropped_count();

  json::Writer w(out);
  w.begin_object().field("displayTimeUnit", "ms");
  w.key("otherData").begin_object().field("droppedEvents", dropped).end_object();
  w.key("traceEvents").begin_array();
  for (const EventView& v : views) {
    const char* ph = v.kind == Kind::kSpan ? "X" : v.kind == Kind::kInstant ? "i" : "C";
    w.begin_object().field("ph", ph);
    w.field("cat", v.cat != nullptr ? v.cat : "");
    w.field("name", v.name != nullptr ? v.name : "");
    w.field("pid", 1).field("tid", v.tid);
    w.key("ts").thousandths(v.startNs);
    if (v.kind == Kind::kSpan) w.key("dur").thousandths(v.durNs);
    if (v.kind == Kind::kInstant) w.field("s", "t");
    w.key("args").begin_object();
    if (v.kind == Kind::kCounter) w.field("value", v.value);
    if (v.k0 != nullptr) w.field(v.k0, v.v0);
    if (v.k1 != nullptr) w.field(v.k1, v.v1);
    w.end_object().end_object();
  }
  w.end_array().end_object();
}

void write_chrome_trace_file(const std::string& pathOrDash) {
  json::write_output(pathOrDash, "trace",
                     [](std::ostream& out) { write_chrome_trace(out); });
}

}  // namespace fghp::trace
