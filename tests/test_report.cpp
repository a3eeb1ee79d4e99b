// Observability stack tests: the perf-counter gates (compiled-out /
// disabled / refused-open all degrade to zeroed samples with one warning and
// change no computed result), the executor's per-iteration histogram, the
// RunReport builder (phase analytics, modeled-vs-measured volume audit,
// JSON round-trip, rendering), and watchdog stall attribution to the
// worker's innermost active trace span.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "sparse/testsuite.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/perf_counters.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp {
namespace {

std::vector<double> random_x(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform01() * 2.0 - 1.0;
  return x;
}

sparse::Csr small_matrix() { return sparse::make_matrix("sherman3", 1, 0.05); }

std::vector<long long> to_ll(const std::vector<weight_t>& v) {
  return {v.begin(), v.end()};
}

/// Restores the default observability state (tracing off, counters off and
/// un-probed, warning log drained) no matter how the test exits.
struct ObservabilityReset {
  ~ObservabilityReset() {
    trace::disable();
    trace::reset();
    perf::set_enabled(false);
    perf::reset_for_test();
    drain_warnings();
  }
};

// ------------------------------------------------------- perf gates ----

TEST(PerfGates, DisabledReadIsInvalidAndNeverProbes) {
  ObservabilityReset cleanup;
  perf::reset_for_test();
  perf::set_enabled(false);
  const perf::Sample s = perf::read_thread();
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.cycles, 0);
  EXPECT_EQ(s.instructions, 0);
  EXPECT_EQ(s.llcMisses, 0);
  EXPECT_EQ(s.branchMisses, 0);
  // available() must not probe behind a disabled gate, so no warning either.
  EXPECT_FALSE(perf::available());
  EXPECT_TRUE(drain_warnings().empty());
}

TEST(PerfGates, RefusedOpenDegradesToZerosWithSingleWarning) {
  if (!perf::compiled_in()) GTEST_SKIP() << "built with FGHP_PERF=OFF";
  ObservabilityReset cleanup;
  drain_warnings();
  perf::reset_for_test();
  perf::set_enabled(true);
  // No ordinal: the open-attempt counter is process-wide, so the attempt
  // number this test sees depends on execution order.
  fault::ScopedSpec spec("perf.open");
  const perf::Sample s1 = perf::read_thread();
  const perf::Sample s2 = perf::read_thread();
  EXPECT_FALSE(s1.valid);
  EXPECT_FALSE(s2.valid);
  EXPECT_EQ(s1.cycles, 0);
  EXPECT_FALSE(perf::available());  // refusal is cached process-wide
  const std::vector<std::string> warnings = drain_warnings();
  ASSERT_EQ(warnings.size(), 1u) << "refusal must warn exactly once";
  EXPECT_NE(warnings[0].find("perf counters unavailable"), std::string::npos)
      << warnings[0];
}

TEST(PerfGates, CounterScopeIsNoopWhileDisabled) {
  ObservabilityReset cleanup;
  perf::set_enabled(false);
  const std::int64_t before = metrics::counter("perf.scope_test.cycles").value();
  { perf::CounterScope scope("scope_test"); }
  EXPECT_EQ(metrics::counter("perf.scope_test.cycles").value(), before);
}

TEST(PerfGates, DeltaRequiresBothSamplesValid) {
  perf::Sample a;
  a.valid = true;
  a.cycles = 10;
  a.instructions = 20;
  perf::Sample b;
  b.valid = true;
  b.cycles = 25;
  b.instructions = 60;
  const perf::Sample d = perf::delta(a, b);
  EXPECT_TRUE(d.valid);
  EXPECT_EQ(d.cycles, 15);
  EXPECT_EQ(d.instructions, 40);
  b.valid = false;
  EXPECT_FALSE(perf::delta(a, b).valid);
  EXPECT_FALSE(perf::delta(b, a).valid);
}

// --------------------------------------------- executor instrumentation ----

TEST(ExecMetrics, IterationHistogramCountsRunAndRunMt) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  spmv::ExecSession session(spmv::build_plan(a, d));
  const std::vector<double> x = random_x(a.num_cols(), 3);
  std::vector<double> y;
  // The session's constructor registered the histogram; {} never applies.
  metrics::Histogram& h = metrics::histogram("spmv.iteration.us", {});
  const std::int64_t c0 = h.count();
  session.run(x, y);
  EXPECT_EQ(h.count(), c0 + 1);
  session.run_mt(x, y, 2);
  EXPECT_EQ(h.count(), c0 + 2);
  session.run_mt(x, y, 1);  // serial fallback still counts one iteration
  EXPECT_EQ(h.count(), c0 + 3);
}

TEST(BitIdentity, CountedAndReportedRunsMatchPlainAcrossThreadCounts) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  const spmv::SpmvPlan plan = spmv::build_plan(a, d);
  const std::vector<double> x = random_x(a.num_cols(), 9);
  const std::vector<int> threadCounts = {1, 2, 8};

  std::vector<std::vector<double>> plain;
  {
    spmv::ExecSession session(plan);
    for (int t : threadCounts) {
      std::vector<double> y;
      session.run_mt(x, y, t);
      plain.push_back(y);
    }
    std::vector<double> y;
    session.run(x, y);
    plain.push_back(y);
  }

  // Same runs with the whole observability stack on: tracing, counters
  // (probing real hardware where the kernel allows, degrading to zeros
  // otherwise) and a report builder. Results must be bit-identical.
  ObservabilityReset cleanup;
  trace::enable();
  trace::reset();
  perf::reset_for_test();
  perf::set_enabled(true);
  report::Builder rep("test_report", "bit-identity");
  {
    spmv::ExecSession session(plan);
    std::size_t i = 0;
    for (int t : threadCounts) {
      std::vector<double> y;
      session.run_mt(x, y, t);
      EXPECT_EQ(y, plain[i++]) << "run_mt(" << t << ") diverged under observability";
    }
    std::vector<double> y;
    session.run(x, y);
    EXPECT_EQ(y, plain.back()) << "serial run diverged under observability";
  }
  const report::RunReport r = rep.build();
  EXPECT_EQ(r.status, "ok");
  EXPECT_FALSE(r.phases.empty());
}

// ----------------------------------------------------------- RunReport ----

TEST(RunReport, EndToEndAuditMatchesCommAnalyze) {
  const sparse::Csr a = small_matrix();
  const model::Decomposition d = model::checkerboard_decompose_k(a, 4);
  const comm::CommStats cs = comm::analyze(a, d);

  ObservabilityReset cleanup;
  trace::enable();
  trace::reset();
  report::Builder rep("test_report", "exec");
  rep.info("matrix", "sherman3");
  rep.info("k", 4);
  rep.expect_volume("spmv", cs.expandWords, cs.foldWords,
                    static_cast<long long>(cs.expandMessages) + cs.foldMessages);
  rep.set_proc_comm(to_ll(cs.sendWords), to_ll(cs.recvWords));

  spmv::ExecSession session(spmv::build_plan(a, d));
  const std::vector<double> x = random_x(a.num_cols(), 5);
  std::vector<double> y;
  const int reps = 4;
  for (int r = 0; r < reps; ++r) session.run_mt(x, y, 2);

  const report::RunReport r = rep.build();
  EXPECT_EQ(r.version, report::kRunReportVersion);
  EXPECT_EQ(r.status, "ok");
  EXPECT_TRUE(r.traceEnabled);
  EXPECT_GT(r.traceEvents, 0);
  EXPECT_GE(r.wallMs, 0.0);
  ASSERT_FALSE(r.phases.empty());
  for (const report::PhaseStat& p : r.phases) {
    EXPECT_GT(p.parallelEfficiency, 0.0) << p.name;
    EXPECT_LE(p.parallelEfficiency, 1.0) << p.name;
    EXPECT_GT(p.spans, 0) << p.name;
    EXPECT_GT(p.workers, 0) << p.name;
    EXPECT_GE(p.busyMs, p.criticalPathMs) << p.name;
  }
  ASSERT_FALSE(r.workers.empty());
  for (const report::WorkerStat& w : r.workers) {
    EXPECT_GT(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.0);
  }

  // The paper's pricing, audited: the executor's measured word counters over
  // the run must equal comm::analyze's per-iteration totals times the
  // iteration count, exactly.
  ASSERT_TRUE(r.audit.present);
  EXPECT_EQ(r.audit.metricPrefix, "spmv");
  EXPECT_EQ(r.audit.iterations, reps);
  EXPECT_EQ(r.audit.measuredExpandWords, static_cast<long long>(cs.expandWords) * reps);
  EXPECT_EQ(r.audit.measuredFoldWords, static_cast<long long>(cs.foldWords) * reps);
  EXPECT_TRUE(r.audit.matches);

  ASSERT_TRUE(r.comm.present);
  long long total = 0;
  for (const weight_t w : cs.sendWords) total += w;
  EXPECT_EQ(r.comm.totalWords, total);
  EXPECT_EQ(r.comm.sendWords.size(), cs.sendWords.size());
}

TEST(RunReport, FailurePathReportsError) {
  report::Builder rep("test_report", "fail");
  rep.set_error("boom");
  const report::RunReport r = rep.build();
  EXPECT_EQ(r.status, "error");
  EXPECT_EQ(r.error, "boom");
}

TEST(RunReport, JsonRoundTrip) {
  report::Builder rep("test_report", "roundtrip");
  rep.info("k", 7);
  rep.expect_volume("spmv", 11, 13, 17);
  rep.set_proc_comm({3, 5}, {5, 3});
  const report::RunReport r = rep.build();
  std::ostringstream os;
  report::write_json(r, os);

  const json::Value doc = json::parse(os.str());
  EXPECT_EQ(doc.int_at("run_report_version"), report::kRunReportVersion);
  EXPECT_EQ(doc.at("tool").str, "test_report");
  EXPECT_EQ(doc.at("command").str, "roundtrip");
  EXPECT_EQ(doc.at("status").str, "ok");
  EXPECT_EQ(doc.at("info").at("k").str, "7");
  EXPECT_EQ(doc.at("perf").at("compiled_in").boolean, perf::compiled_in());
  const json::Value& audit = doc.at("volume_audit");
  EXPECT_TRUE(audit.at("present").boolean);
  EXPECT_EQ(audit.int_at("modeled_expand_words"), 11);
  // No executor ran since the builder was created: 0 iterations, and the
  // audit holds trivially (0 == modeled * 0).
  EXPECT_EQ(audit.int_at("iterations"), 0);
  EXPECT_TRUE(audit.at("matches").boolean);
  const json::Value& comm = doc.at("proc_comm");
  EXPECT_EQ(comm.int_at("total_words"), 8);
  EXPECT_EQ(comm.int_at("max_proc_words"), 8);
}

TEST(RunReport, WriteFileAndRenderFile) {
  report::Builder rep("test_report", "render");
  const std::string path = ::testing::TempDir() + "fghp_test_report.json";
  report::write_file(rep.build(), path);
  std::ostringstream out;
  report::render_file(path, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("RunReport v1: test_report render"), std::string::npos) << text;
  EXPECT_NE(text.find("volume audit: not armed"), std::string::npos) << text;
  EXPECT_NE(text.find("perf counters:"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(RunReport, RenderFileRejectsMalformedJson) {
  const std::string path = ::testing::TempDir() + "fghp_test_report_bad.json";
  // Each must be a FormatError: no crash (200 000 '[' once overflowed the
  // parser's stack), no usage error (a bad unicode escape once surfaced as
  // std::invalid_argument), no prefix read (1-2 once read as 1).
  const std::vector<std::string> bad = {
      "{ not json",
      std::string(200000, '['),
      R"({"a":"\uZZZZ"})",
      R"({"run_report_version":1-2})",
      "01",
      "1.",
      "-",
      R"("\u12)",
  };
  for (const std::string& text : bad) {
    {
      std::ofstream f(path);
      f << text;
    }
    std::ostringstream out;
    EXPECT_THROW(report::render_file(path, out), FormatError) << text.substr(0, 40);
  }

  // A well-formed report with hand-edited member types: each edit alone, and
  // all three together, is a FormatError naming the member and the type it
  // must have (the unchecked reader rendered "RunReport v0" and "wall 0.00
  // ms" and succeeded).
  std::ostringstream good;
  report::write_json(report::Builder("test_report", "edit").build(), good);
  // Replaces the value of the first `"key": value` line.
  auto edit = [](std::string text, const std::string& key, const std::string& value) {
    const std::size_t at = text.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + key.size() + 4;
    const std::size_t to = text.find_first_of(",\n", from);
    return text.replace(from, to - from, value);
  };
  struct Edit {
    std::string key, value, message;
  };
  const std::vector<Edit> edits = {
      {"run_report_version", R"("one")", "member 'run_report_version' must be an integer"},
      {"tool", "5", "member 'tool' must be a string"},
      {"wall_ms", R"("fast")", "member 'wall_ms' must be a number"},
  };
  auto expect_rejected = [&](const std::string& text, const std::string& message) {
    {
      std::ofstream f(path);
      f << text;
    }
    std::ostringstream out;
    try {
      report::render_file(path, out);
      ADD_FAILURE() << "rendered a report that should fail with: " << message;
    } catch (const FormatError& err) {
      EXPECT_NE(std::string(err.what()).find(message), std::string::npos) << err.what();
    }
  };
  std::string allEdits = good.str();
  for (const Edit& e : edits) {
    expect_rejected(edit(good.str(), e.key, e.value), e.message);
    allEdits = edit(allEdits, e.key, e.value);
  }
  expect_rejected(allEdits, edits.front().message);  // fails on its first member

  std::ostringstream out;
  EXPECT_THROW(report::render_file(path + ".missing", out), IoError);
  std::remove(path.c_str());
}

TEST(RunReport, MutatedReportsParseOrFailAsFormatError) {
  // Seeded byte edits of a real report: the reader either accepts the
  // result or throws FormatError — any other exception fails the test, and
  // under the sanitizers so does any out-of-bounds read.
  report::Builder rep("test_report", "fuzz");
  rep.expect_volume("spmv", 1, 2, 3);
  rep.set_proc_comm({3, 5}, {5, 3});
  std::ostringstream os;
  report::write_json(rep.build(), os);
  const std::string seed = os.str();
  const std::string alphabet = "{}[]\",:\\-+.0123456789eEtrufalsn \n\x01\xff";
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = seed;
    for (auto edits = 1 + rng.next_below(4); edits > 0; --edits) {
      const std::size_t at = rng.next_below(text.size());
      const char c = alphabet[rng.next_below(alphabet.size())];
      switch (rng.next_below(3)) {
        case 0: text[at] = c; break;
        case 1: text.insert(at, 1, c); break;
        default: text.erase(at, 1 + rng.next_below(8)); break;
      }
    }
    try {
      json::parse(text);
    } catch (const FormatError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

// ------------------------------------------------ watchdog attribution ----

TEST(WatchdogAttribution, SimulatedStallNamesInnermostActiveSpan) {
  ThreadPool pool(2);
  trace::ActivityScope act("report.test.phase");
  fault::ScopedSpec spec("watchdog.stall:1");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(pool.watchdog_scan(), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("in span 'report.test.phase'"), std::string::npos) << err;
}

TEST(WatchdogAttribution, RealStallNamesWorkerSpan) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  ::testing::internal::CaptureStderr();
  TaskGroup group(pool);
  group.run([&] {
    trace::ActivityScope act("report.stuck.phase");
    started.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!started.load()) std::this_thread::yield();
  const std::int64_t before = metrics::counter("watchdog.stalls").value();
  pool.set_watchdog_ms(5);
  bool reported = false;
  for (int i = 0; i < 400 && !reported; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.watchdog_scan();
    reported = metrics::counter("watchdog.stalls").value() > before;
  }
  release.store(true);
  group.wait();
  // The stall counter is bumped just before the stderr write; give the
  // reporting thread a beat to finish the write before uncapturing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(reported) << "stalled task never reported";
  EXPECT_NE(err.find("in span 'report.stuck.phase'"), std::string::npos) << err;
}

}  // namespace
}  // namespace fghp
