// Shared pin of the executor's traffic ledger: what one threaded iteration
// charges to ExecStats and to the registered `<prefix>.*` counters, at 1, 2
// and 8 threads, for a clean run, a retried task, a serial fallback and a
// cancelled iteration. test_compiled (SpMV) and test_spgemm (SpGEMM) both
// run it, each with traffic totals taken from its independent analyzer.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "exec/compiled.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace fghp::ledger {

/// One iteration's traffic as the analyzer counts it.
struct Traffic {
  weight_t expandWords = 0;
  weight_t foldWords = 0;
  idx_t messages = 0;
};

/// run_mt(threads, stats) on a session that lives as long as the closure.
using RunMt = std::function<void(idx_t threads, exec::ExecStats* stats)>;

struct Ledger {
  std::int64_t iterations, expandWords, foldWords, messages, taskRetries,
      serialFallbacks;

  static Ledger read(const std::string& prefix) {
    auto v = [&](const char* name) { return metrics::counter(prefix + name).value(); };
    return {v(".iterations"), v(".expand.words"), v(".fold.words"),
            v(".messages"),   v(".task_retries"), v(".serial_fallbacks")};
  }

  Ledger operator-(const Ledger& o) const {
    return {iterations - o.iterations,   expandWords - o.expandWords,
            foldWords - o.foldWords,     messages - o.messages,
            taskRetries - o.taskRetries, serialFallbacks - o.serialFallbacks};
  }
};

/// `fresh()` returns a run closure over a new session (iteration ordinal 0)
/// of a schedule with `numProcs` processors and traffic `want`.
inline void expect_ledger(const std::string& prefix, idx_t numProcs,
                          const Traffic& want, const std::function<RunMt()>& fresh) {
  const std::int64_t words = want.expandWords + want.foldWords;
  ASSERT_GT(want.expandWords, 0);
  ASSERT_GT(want.foldWords, 0);

  // One run_mt on a fresh session under `spec`; returns the counter deltas.
  auto charge = [&](const char* spec, idx_t threads, exec::ExecStats& stats) {
    const RunMt run = fresh();
    fault::ScopedSpec armed(spec);
    const Ledger before = Ledger::read(prefix);
    run(threads, &stats);
    return Ledger::read(prefix) - before;
  };
  auto expect_charged_once = [&](const Ledger& d, std::int64_t retries,
                                 std::int64_t fallbacks) {
    EXPECT_EQ(d.iterations, 1);
    EXPECT_EQ(d.expandWords, want.expandWords);
    EXPECT_EQ(d.foldWords, want.foldWords);
    EXPECT_EQ(d.messages, want.messages);
    EXPECT_EQ(d.taskRetries, retries);
    EXPECT_EQ(d.serialFallbacks, fallbacks);
  };

  for (idx_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      SCOPED_TRACE("clean");
      exec::ExecStats st;
      expect_charged_once(charge("", threads, st), 0, 0);
      EXPECT_EQ(st.wordsSent, words);
      EXPECT_EQ(st.messagesSent, want.messages);
      EXPECT_EQ(st.taskRetries, 0);
      EXPECT_FALSE(st.serialFallback);
    }
    {
      SCOPED_TRACE("one retried expand task");
      exec::ExecStats st;
      expect_charged_once(charge("exec.expand:1", threads, st), 1, 0);
      EXPECT_EQ(st.wordsSent, words);
      EXPECT_EQ(st.messagesSent, want.messages);
      EXPECT_EQ(st.taskRetries, 1);
      EXPECT_FALSE(st.serialFallback);
    }
    {
      // Every fold task fails and so does its retry: numProcs retries, one
      // fallback, and the iteration's traffic is charged once, not twice.
      SCOPED_TRACE("serial fallback");
      exec::ExecStats st;
      expect_charged_once(charge("exec.fold,exec.retry", threads, st), numProcs, 1);
      EXPECT_EQ(st.wordsSent, words);
      EXPECT_EQ(st.messagesSent, want.messages);
      EXPECT_EQ(st.taskRetries, numProcs);
      EXPECT_TRUE(st.serialFallback);
    }
    {
      SCOPED_TRACE("cancelled first iteration");
      const RunMt run = fresh();
      fault::ScopedSpec armed("cancel.exec.iter:1");
      const Ledger before = Ledger::read(prefix);
      exec::ExecStats st;
      EXPECT_THROW(run(threads, &st), CancelledError);
      const Ledger d = Ledger::read(prefix) - before;
      EXPECT_EQ(d.iterations, 0);
      EXPECT_EQ(d.expandWords, 0);
      EXPECT_EQ(d.foldWords, 0);
      EXPECT_EQ(d.messages, 0);
      EXPECT_EQ(d.taskRetries, 0);
      EXPECT_EQ(d.serialFallbacks, 0);
    }
  }
  drain_warnings();
}

}  // namespace fghp::ledger
