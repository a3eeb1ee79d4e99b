#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/options.hpp"
#include "util/trace.hpp"

namespace fghp {

namespace {

/// Heartbeat time on the trace clock. Offset by one so a beat taken at the
/// trace epoch never reads as the idle marker 0.
std::int64_t steady_now_ns() { return static_cast<std::int64_t>(trace::now_ns()) + 1; }

}  // namespace

ThreadPool::ThreadPool(int totalThreads) {
  grow_to(totalThreads);
  const long wd = default_watchdog_ms();
  if (wd > 0) set_watchdog_ms(wd);
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(wdMu_);
    wdStop_ = true;
  }
  wdCv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  workReady_.notify_all();
  for (auto& w : workers_) w.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_.clear();
  }
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(workers_.size()) + 1;
}

void ThreadPool::grow_to(int totalThreads) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stop_) throw InvariantError("grow_to on a stopped thread pool");
  const auto want = static_cast<std::size_t>(std::max(0, totalThreads - 1));
  while (workers_.size() < want) {
    const std::size_t index = workers_.size();
    beats_.emplace_back();
    lastReported_.push_back(0);
    workers_.emplace_back([this, index] { worker_loop(index); });
  }
}

int ThreadPool::default_num_threads() {
  static const int n = [] {
    const long env = env_long("FGHP_THREADS", 0);
    if (env > 0) return static_cast<int>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return n;
}

long ThreadPool::default_watchdog_ms() {
  static const long ms = [] {
    const long env = env_long("FGHP_WATCHDOG_MS", 0);
    return env > 0 ? env : 0;
  }();
  return ms;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

ThreadPool* ThreadPool::for_request(long requested) {
  const long n = requested > 0 ? requested : default_num_threads();
  if (n <= 1) return nullptr;
  ThreadPool& pool = global();
  pool.grow_to(static_cast<int>(n));
  return &pool;
}

void ThreadPool::set_watchdog_ms(long ms) {
  watchdogMs_.store(ms > 0 ? ms : 0, std::memory_order_release);
  if (ms <= 0) return;
  std::lock_guard<std::mutex> lk(wdMu_);
  if (wdStop_ || watchdog_.joinable()) return;
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void ThreadPool::watchdog_loop() {
  std::unique_lock<std::mutex> lk(wdMu_);
  for (;;) {
    const long ms = watchdogMs_.load(std::memory_order_acquire);
    const long interval = ms > 0 ? std::clamp(ms / 2, 1L, 1000L) : 100L;
    wdCv_.wait_for(lk, std::chrono::milliseconds(interval), [this] { return wdStop_; });
    if (wdStop_) return;
    if (watchdogMs_.load(std::memory_order_acquire) > 0) {
      lk.unlock();
      watchdog_scan();
      lk.lock();
    }
  }
}

long ThreadPool::watchdog_scan() {
  struct Stall {
    long worker;       // -1 = simulated via the fault site
    long ageMs;
    std::uint64_t seq;
    const char* activity;  // innermost span name, nullptr when unattributed
  };
  const long scan = watchdogScans_.fetch_add(1, std::memory_order_relaxed) + 1;
  const long stallMs = watchdogMs_.load(std::memory_order_acquire);
  const std::int64_t nowNs = steady_now_ns();
  std::vector<Stall> stalls;
  std::size_t queueDepth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queueDepth = queue_.size();
    for (std::size_t i = 0; i < beats_.size(); ++i) {
      const std::int64_t since = beats_[i].busySinceNs.load(std::memory_order_acquire);
      const std::uint64_t seq = beats_[i].seq.load(std::memory_order_acquire);
      if (since == 0 || stallMs <= 0) continue;
      const std::int64_t ageNs = nowNs - since;
      if (ageNs < stallMs * 1'000'000 || lastReported_[i] == seq) continue;
      lastReported_[i] = seq;  // report each stuck task once, not every scan
      stalls.push_back({static_cast<long>(i), static_cast<long>(ageNs / 1'000'000), seq,
                        beats_[i].activity.load(std::memory_order_acquire)});
    }
  }
  // Simulated stall: the fault site records its own trace instant; the rest
  // of the reporting path (metric + stderr dump) is shared with real stalls.
  if (fault::fired("watchdog.stall", scan))
    stalls.push_back({-1, stallMs, 0, trace::current_activity()});
  if (stalls.empty()) return 0;
  static metrics::Counter& stalled = metrics::counter("watchdog.stalls");
  for (const Stall& s : stalls) {
    stalled.add();
    if (s.worker >= 0) trace::instant("watchdog", "watchdog.stall", "worker", s.worker);
    std::ostringstream os;
    if (s.worker >= 0) {
      os << "fghp watchdog: worker " << s.worker << " has been in one task for " << s.ageMs
         << " ms ";
      if (s.activity != nullptr)
        os << "in span '" << s.activity << "' ";
      else
        os << "(no active span) ";
      os << "(task #" << s.seq << ", threshold " << stallMs << " ms, queue depth "
         << queueDepth << ")\n";
    } else {
      os << "fghp watchdog: simulated stall (fault site watchdog.stall, scan " << scan;
      if (s.activity != nullptr) os << ", in span '" << s.activity << "'";
      os << ", queue depth " << queueDepth << ")\n";
    }
    std::fputs(os.str().c_str(), stderr);
  }
  return static_cast<long>(stalls.size());
}

void ThreadPool::enqueue(Task t) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) throw InvariantError("task enqueued on a stopped thread pool");
    queue_.push_back(std::move(t));
  }
  workReady_.notify_one();
}

bool ThreadPool::try_steal(Task& out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (queue_.empty()) return false;
  out = std::move(queue_.back());
  queue_.pop_back();
  return true;
}

void ThreadPool::run_task(Task& t) {
  std::exception_ptr err;
  try {
    t.fn();
  } catch (...) {
    err = std::current_exception();
  }
  // Move the reference into the group: after finish_one the running thread
  // holds no handle to the exception object, so the final release (which
  // frees it) always happens on the thread that consumes it from wait().
  if (t.group != nullptr) t.group->finish_one(std::move(err));
}

void ThreadPool::worker_loop(std::size_t index) {
  Beat* beatPtr = nullptr;
  {
    // Index the deque under the lock (concurrent grow_to mutates its
    // internals); the element's address is stable for the pool's lifetime.
    std::lock_guard<std::mutex> lk(mu_);
    beatPtr = &beats_[index];
  }
  Beat& beat = *beatPtr;
  // Mirror this worker's innermost active span name into the heartbeat so
  // the watchdog can attribute a stall to a phase, not just a worker index.
  trace::publish_activity(&beat.activity);
  for (;;) {
    Task t;
    {
      std::unique_lock<std::mutex> lk(mu_);
      workReady_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {  // stop_ set and nothing left to drain
        trace::publish_activity(nullptr);
        return;
      }
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    beat.seq.fetch_add(1, std::memory_order_relaxed);
    beat.busySinceNs.store(steady_now_ns(), std::memory_order_release);
    run_task(t);
    beat.busySinceNs.store(0, std::memory_order_release);
  }
}

TaskGroup::~TaskGroup() {
  // A group must not die with tasks in flight; wait() here would be too late
  // to report the error usefully, so finish the join but swallow reruns of
  // an exception already thrown from an explicit wait().
  try {
    wait();
  } catch (...) {
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++pending_;
  }
  try {
    pool_.enqueue(ThreadPool::Task{std::move(fn), this});
  } catch (...) {
    // The task never entered the queue (stopped pool): undo the fork so
    // wait() does not hang on a completion that will never come.
    std::lock_guard<std::mutex> lk(mu_);
    --pending_;
    if (pending_ == 0) done_.notify_all();
    throw;
  }
}

void TaskGroup::finish_one(std::exception_ptr err) {
  std::lock_guard<std::mutex> lk(mu_);
  if (err) errs_.push_back(std::move(err));
  --pending_;
  if (pending_ == 0) done_.notify_all();
}

void TaskGroup::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (pending_ == 0) break;
    }
    ThreadPool::Task t;
    if (pool_.try_steal(t)) {
      ThreadPool::run_task(t);
      continue;
    }
    // Nothing to steal right now; sleep until one of our tasks completes.
    // The timeout re-checks the queue: a task running elsewhere may fork new
    // work we could help with, and forks don't signal this group's condvar.
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait_for(lk, std::chrono::microseconds(200), [this] { return pending_ == 0; });
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!errs_.empty()) {
    std::vector<std::exception_ptr> errs;
    errs.swap(errs_);
    if (errs.size() == 1) std::rethrow_exception(errs.front());
    throw AggregateError(std::move(errs));
  }
}

void parallel_for(ThreadPool& pool, long n, const std::function<void(long)>& fn) {
  if (n <= 0) return;
  if (n == 1 || pool.num_threads() <= 1) {
    for (long i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(pool);
  for (long i = 0; i < n; ++i) {
    group.run([i, &fn] { fn(i); });
  }
  group.wait();
}

}  // namespace fghp
