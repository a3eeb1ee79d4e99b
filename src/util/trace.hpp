// Thread-safe hierarchical span tracer for the partition -> SpMV pipeline.
//
// Every instrumented site costs a single relaxed atomic load plus one branch
// while tracing is disabled (the default); RAII scopes additionally keep the
// always-on, allocation-free activity stack (current_activity()) so stall
// diagnostics can name the running phase even in untraced runs. When enabled — programmatically,
// via the FGHP_TRACE environment variable, or by a CLI's --trace-out flag
// (report::Observability) — events are recorded into per-thread ring
// buffers with no locking and no heap allocation on the hot path, and can be
// exported as Chrome trace-event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev) at any quiescent point.
//
// Event kinds:
//   * span    — a named duration ("X" complete events). The RAII TraceScope
//               covers the synchronous case; now_ns() + complete() cover
//               fork-join tasks whose begin and end the caller brackets
//               explicitly.
//   * instant — a point event ("i"): fault-point fires, recovery-ladder
//               steps.
//   * counter — a sampled numeric series ("C"): per-processor expand/fold
//               word volume per SpMV iteration.
//
// String arguments (cat / name / arg keys) must have static storage duration
// (string literals, interned registry strings): events store the pointers,
// never copies. Each event carries up to two named integer args.
//
// Ring buffers drop the *oldest* events on overflow and count every drop
// (dropped_count(), also exported in the JSON). The default per-thread
// capacity is 32768 events; override with enable(capacity) or the
// FGHP_TRACE_CAP environment variable.
//
// FGHP_TRACE=trace.json enables tracing at process start and writes the file
// from an atexit handler, so any binary in the repo can be traced without
// code changes. Exporters read buffers without stopping writers; call them
// when instrumented threads are quiescent (joined or idle) for a consistent
// snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fghp::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
void emit_span(const char* cat, const char* name, std::uint64_t startNs,
               std::uint64_t endNs, const char* k0, std::int64_t v0,
               const char* k1, std::int64_t v1);
void emit_instant(const char* cat, const char* name, const char* k0, std::int64_t v0,
                  const char* k1, std::int64_t v1);
void emit_counter(const char* cat, const char* name, double value, const char* k0,
                  std::int64_t v0);
// Always-on innermost-active-span bookkeeping (see current_activity()):
// a fixed-size thread_local name stack, no allocation, no atomics unless the
// thread registered a publish slot.
void activity_push(const char* name);
void activity_pop();
}  // namespace detail

/// The one-branch gate every instrumented site checks first.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Monotonic nanoseconds since the process trace epoch. Always available
/// (independent of enabled()); pairs with complete() for explicit
/// begin/end spans.
std::uint64_t now_ns();

/// Turns recording on. perThreadCapacity = events per thread ring; 0 keeps
/// the current capacity (first call: FGHP_TRACE_CAP or the 32768 default).
/// Changing the capacity discards previously recorded events.
void enable(std::size_t perThreadCapacity = 0);

/// Turns recording off. Recorded events are kept for export.
void disable();

/// Discards every recorded event and the drop counts (enabled state and
/// capacity unchanged).
void reset();

/// Events currently held across all thread buffers / events overwritten by
/// ring overflow since the last reset.
std::size_t event_count();
std::uint64_t dropped_count();

/// What kind of event an EventView describes (span "X" / instant "i" /
/// counter "C" in the Chrome export).
enum class EventKind : std::uint8_t { kSpan, kInstant, kCounter };

/// One recorded event, snapshotted for in-process analysis (util/report).
/// The string pointers are the original static-storage strings — valid for
/// the process lifetime, never copies.
struct EventView {
  EventKind kind = EventKind::kInstant;
  std::uint32_t tid = 0;     ///< recorder thread (dense per-process id)
  std::uint64_t startNs = 0; ///< ns since the trace epoch
  std::uint64_t durNs = 0;   ///< spans only
  const char* cat = nullptr;
  const char* name = nullptr;
  const char* k0 = nullptr;
  const char* k1 = nullptr;
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
  double value = 0.0;        ///< counters only
};

/// Copies every currently held event out of the ring buffers, sorted by
/// start time — the in-memory feed of the post-run analyzer (the Chrome
/// exporter is this plus formatting). Same consistency contract as the
/// exporters: call at a quiescent point.
std::vector<EventView> snapshot_events();

/// The name of the innermost span currently active on the calling thread
/// (TraceScope / ActivityScope / explicit activity push), or nullptr. This
/// bookkeeping is always on — unlike event recording it needs no enable() —
/// so stall diagnostics can attribute a phase even in untraced runs.
const char* current_activity();

/// Registers `slot` to mirror this thread's innermost active span name
/// (nullptr when idle) on every push/pop, with release stores so another
/// thread — the pool watchdog — can read it with acquire loads. Pass nullptr
/// to unregister (the old slot is cleared). The pointed-to names are
/// static-storage strings, safe to dereference from any thread at any time.
void publish_activity(std::atomic<const char*>* slot);

/// RAII activity marker without an event: names the enclosing work for
/// current_activity() / watchdog attribution at zero tracing cost. Use where
/// a span is already emitted by explicit brackets (begin/end pairs) but the
/// in-flight name still needs to be visible.
class ActivityScope {
 public:
  explicit ActivityScope(const char* name) { detail::activity_push(name); }
  ~ActivityScope() { detail::activity_pop(); }

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;
};

/// Explicit-bracket span: record start = now_ns() yourself, then call
/// complete() at the end (on the thread that finished the work).
inline void complete(const char* cat, const char* name, std::uint64_t startNs,
                     std::uint64_t endNs, const char* k0 = nullptr, std::int64_t v0 = 0,
                     const char* k1 = nullptr, std::int64_t v1 = 0) {
  if (enabled()) detail::emit_span(cat, name, startNs, endNs, k0, v0, k1, v1);
}

/// Point event (fault fire, recovery step).
inline void instant(const char* cat, const char* name, const char* k0 = nullptr,
                    std::int64_t v0 = 0, const char* k1 = nullptr, std::int64_t v1 = 0) {
  if (enabled()) detail::emit_instant(cat, name, k0, v0, k1, v1);
}

/// Sampled numeric series; k0/v0 disambiguates the series (e.g. "proc", p).
inline void counter(const char* cat, const char* name, double value,
                    const char* k0 = nullptr, std::int64_t v0 = 0) {
  if (enabled()) detail::emit_counter(cat, name, value, k0, v0);
}

/// RAII span: one complete event from construction to destruction, recorded
/// on the destructing thread. While tracing is disabled it still maintains
/// the (allocation-free) activity stack for stall attribution, costing a few
/// thread-local stores on top of the one gate branch.
class TraceScope {
 public:
  explicit TraceScope(const char* cat, const char* name, const char* k0 = nullptr,
                      std::int64_t v0 = 0, const char* k1 = nullptr,
                      std::int64_t v1 = 0) {
    detail::activity_push(name);
    if (!enabled()) return;
    active_ = true;
    cat_ = cat;
    name_ = name;
    k0_ = k0;
    v0_ = v0;
    k1_ = k1;
    v1_ = v1;
    start_ = now_ns();
  }
  ~TraceScope() {
    if (active_) detail::emit_span(cat_, name_, start_, now_ns(), k0_, v0_, k1_, v1_);
    detail::activity_pop();
  }

  /// Replaces the span's args with values only known at the end of the scope
  /// (e.g. an entry count discovered while parsing). No-op while disabled.
  void set_args(const char* k0, std::int64_t v0, const char* k1 = nullptr,
                std::int64_t v1 = 0) {
    if (!active_) return;
    k0_ = k0;
    v0_ = v0;
    k1_ = k1;
    v1_ = v1;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_ = false;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  const char* k0_ = nullptr;
  const char* k1_ = nullptr;
  std::int64_t v0_ = 0;
  std::int64_t v1_ = 0;
  std::uint64_t start_ = 0;
};

/// Writes every recorded event as Chrome trace-event JSON
/// ({"traceEvents":[...]}). Events are sorted by start time; ts/dur are in
/// microseconds as the format requires.
void write_chrome_trace(std::ostream& out);

/// Same, to a file — or stdout when the path is "-". Throws IoError if the
/// file cannot be written.
void write_chrome_trace_file(const std::string& pathOrDash);

}  // namespace fghp::trace
