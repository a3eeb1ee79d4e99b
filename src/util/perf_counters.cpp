#include "util/perf_counters.hpp"

#include <atomic>
#include <cstring>
#include <mutex>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/options.hpp"
#include "util/trace.hpp"

#if defined(FGHP_PERF) && defined(__linux__)
#define FGHP_PERF_LIVE 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace fghp::perf {

namespace {

// Process-wide probe verdict: 0 = not probed, 1 = available, 2 = refused.
// One verdict for the whole process: if the kernel refuses one thread it
// will refuse them all, and a single cached answer keeps read_thread() at
// one atomic load after the first call.
std::atomic<int> g_state{0};
std::atomic<bool> g_warned{false};
std::atomic<long> g_openAttempts{0};

std::atomic<bool>& enabled_flag() {
  // FGHP_PERF=1 in the environment enables counters at process start, the
  // same pattern as FGHP_TRACE; initialized lazily so tests that clear the
  // environment see a deterministic default.
  static std::atomic<bool> on{env_flag("FGHP_PERF")};
  return on;
}

#ifdef FGHP_PERF_LIVE

void warn_unavailable(const char* why) {
  // Exactly one warning per process (per reset_for_test in tests): the
  // degradation is expected in containers/CI and must not flood stderr.
  bool expected = false;
  if (g_warned.compare_exchange_strong(expected, true))
    push_warning(std::string("hardware perf counters unavailable (") + why +
                 "); profiling counters will read as zero");
}

constexpr int kNumEvents = 4;

/// The calling thread's counter group: fds[0] is the leader (cycles), the
/// rest attach to it, and one read(2) of the leader returns all four values
/// (PERF_FORMAT_GROUP). Closed automatically when the thread exits.
struct Group {
  int fds[kNumEvents] = {-1, -1, -1, -1};
  bool open = false;
  bool failed = false;  // this thread's open failed; never retry per thread

  ~Group() { close_all(); }

  void close_all() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    open = false;
  }
};

thread_local Group t_group;

int open_one(const perf_event_attr& tmpl, int groupFd) {
  perf_event_attr attr = tmpl;
  return static_cast<int>(
      ::syscall(SYS_perf_event_open, &attr, 0 /* this thread */, -1 /* any cpu */,
                groupFd, 0UL));
}

bool try_open_group(Group& g) {
  const long attempt = g_openAttempts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (fault::fired("perf.open", attempt)) {
    g.failed = true;
    g_state.store(2, std::memory_order_release);
    warn_unavailable("injected fault at site perf.open");
    return false;
  }

  struct EventDef {
    std::uint32_t type;
    std::uint64_t config;
  };
  const EventDef defs[kNumEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HW_CACHE,
       PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
           (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
  };

  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.read_format = PERF_FORMAT_GROUP;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;

  for (int i = 0; i < kNumEvents; ++i) {
    attr.type = defs[i].type;
    attr.config = defs[i].config;
    attr.disabled = i == 0 ? 1 : 0;  // the group starts stopped; enabled below
    g.fds[i] = open_one(attr, i == 0 ? -1 : g.fds[0]);
    if (g.fds[i] < 0) {
      // All-or-nothing: a partial group (e.g. no LLC event on this PMU)
      // would silently skew the derived rates, so any refusal downgrades
      // the whole process to the zeroed-counter path.
      const int err = errno;
      g.close_all();
      g.failed = true;
      g_state.store(2, std::memory_order_release);
      warn_unavailable(std::strerror(err));
      return false;
    }
  }
  ::ioctl(g.fds[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(g.fds[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  g.open = true;
  g_state.store(1, std::memory_order_release);
  return true;
}

Sample read_group(Group& g) {
  struct {
    std::uint64_t nr;
    std::uint64_t values[kNumEvents];
  } buf;
  const ssize_t n = ::read(g.fds[0], &buf, sizeof buf);
  Sample s;
  if (n != static_cast<ssize_t>(sizeof buf) || buf.nr != kNumEvents) return s;
  s.cycles = static_cast<std::int64_t>(buf.values[0]);
  s.instructions = static_cast<std::int64_t>(buf.values[1]);
  s.llcMisses = static_cast<std::int64_t>(buf.values[2]);
  s.branchMisses = static_cast<std::int64_t>(buf.values[3]);
  s.valid = true;
  return s;
}

#endif  // FGHP_PERF_LIVE

}  // namespace

Sample delta(const Sample& begin, const Sample& end) {
  Sample d;
  if (!begin.valid || !end.valid) return d;
  d.cycles = end.cycles - begin.cycles;
  d.instructions = end.instructions - begin.instructions;
  d.llcMisses = end.llcMisses - begin.llcMisses;
  d.branchMisses = end.branchMisses - begin.branchMisses;
  d.valid = true;
  return d;
}

bool compiled_in() {
#ifdef FGHP_PERF_LIVE
  return true;
#else
  return false;
#endif
}

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }

Sample read_thread() {
  if (!enabled()) return {};
#ifdef FGHP_PERF_LIVE
  Group& g = t_group;
  if (!g.open) {
    if (g.failed || g_state.load(std::memory_order_acquire) == 2) return {};
    if (!try_open_group(g)) return {};
  }
  return read_group(g);
#else
  return {};
#endif
}

bool available() {
  if (!enabled()) return false;
  if (g_state.load(std::memory_order_acquire) == 0) (void)read_thread();  // probe
  return g_state.load(std::memory_order_acquire) == 1;
}

void reset_for_test() {
#ifdef FGHP_PERF_LIVE
  t_group.close_all();
  t_group.failed = false;
#endif
  g_state.store(0, std::memory_order_release);
  g_warned.store(false, std::memory_order_release);
}

CounterScope::CounterScope(const char* name) : name_(name) {
  if (!enabled()) return;
  begin_ = read_thread();
  if (begin_.valid) startNs_ = trace::now_ns();
}

CounterScope::~CounterScope() {
  if (!begin_.valid) return;
  const Sample d = delta(begin_, read_thread());
  if (!d.valid) return;
  const std::string base = std::string("perf.") + name_;
  metrics::counter(base + ".cycles").add(d.cycles);
  metrics::counter(base + ".instructions").add(d.instructions);
  metrics::counter(base + ".llc_misses").add(d.llcMisses);
  metrics::counter(base + ".branch_misses").add(d.branchMisses);
  trace::complete("perf", name_, startNs_, trace::now_ns(), "cycles", d.cycles,
                  "llc_misses", d.llcMisses);
}

}  // namespace fghp::perf
