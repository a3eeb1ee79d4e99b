#include "util/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/perf_counters.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fghp::report {

namespace {

/// Process user+system CPU time in ms (0.0 where getrusage is unavailable).
double cpu_now_ms() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
#else
  return 0.0;
#endif
}

struct Interval {
  std::uint64_t lo = 0, hi = 0;
};

/// Total covered length of a set of intervals (union, not sum): sort by
/// start, sweep. This is what makes nested spans on one thread count once.
std::uint64_t union_ns(std::vector<Interval>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::uint64_t total = 0, curLo = v[0].lo, curHi = v[0].hi;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].lo > curHi) {
      total += curHi - curLo;
      curLo = v[i].lo;
      curHi = v[i].hi;
    } else {
      curHi = std::max(curHi, v[i].hi);
    }
  }
  return total + (curHi - curLo);
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

long long delta_counter(const metrics::Snapshot& cur, const metrics::Snapshot& base,
                        const std::string& name) {
  const auto it = cur.counters.find(name);
  if (it == cur.counters.end()) return 0;
  const auto bit = base.counters.find(name);
  return it->second - (bit == base.counters.end() ? 0 : bit->second);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

Builder::Builder(std::string tool, std::string command)
    : tool_(std::move(tool)),
      command_(std::move(command)),
      startNs_(trace::now_ns()),
      startCpuMs_(cpu_now_ms()),
      baseline_(metrics::Registry::global().snapshot()) {}

void Builder::info(const std::string& key, std::string value) {
  info_[key] = std::move(value);
}

void Builder::info(const std::string& key, long long value) {
  info_[key] = std::to_string(value);
}

void Builder::set_error(std::string message) { error_ = std::move(message); }

void Builder::expect_volume(std::string metricPrefix, long long expandWordsPerIter,
                            long long foldWordsPerIter, long long messagesPerIter) {
  auditArmed_ = true;
  auditPrefix_ = std::move(metricPrefix);
  expectExpand_ = expandWordsPerIter;
  expectFold_ = foldWordsPerIter;
  expectMessages_ = messagesPerIter;
}

void Builder::set_proc_comm(std::vector<long long> sendWords,
                            std::vector<long long> recvWords) {
  comm_.present = true;
  comm_.sendWords = std::move(sendWords);
  comm_.recvWords = std::move(recvWords);
}

RunReport Builder::build() const {
  RunReport r;
  r.tool = tool_;
  r.command = command_;
  r.status = error_.empty() ? "ok" : "error";
  r.error = error_;
  r.wallMs = to_ms(trace::now_ns() - startNs_);
  r.cpuMs = std::max(0.0, cpu_now_ms() - startCpuMs_);
  r.info = info_;

  // ---- trace-derived statistics -----------------------------------------
  r.traceEnabled = trace::enabled();
  const std::vector<trace::EventView> events = trace::snapshot_events();
  r.traceEvents = static_cast<long long>(events.size());
  r.traceDropped = static_cast<long long>(trace::dropped_count());

  struct PhaseAccum {
    std::uint64_t firstStart = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t minLo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxHi = 0;
    long long spans = 0;
    std::map<std::uint32_t, std::vector<Interval>> byTid;
  };
  std::map<std::string, PhaseAccum> phases;
  std::map<std::uint32_t, std::vector<Interval>> workerIntervals;
  std::uint64_t runLo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t runHi = 0;
  for (const trace::EventView& e : events) {
    if (e.kind != trace::EventKind::kSpan) continue;
    const std::uint64_t lo = e.startNs;
    // A span never measures zero: the busy union (and so the efficiency)
    // must stay positive whenever any span exists.
    const std::uint64_t hi = e.startNs + std::max<std::uint64_t>(e.durNs, 1);
    PhaseAccum& p = phases[e.name != nullptr ? e.name : ""];
    p.firstStart = std::min(p.firstStart, lo);
    p.minLo = std::min(p.minLo, lo);
    p.maxHi = std::max(p.maxHi, hi);
    ++p.spans;
    p.byTid[e.tid].push_back({lo, hi});
    workerIntervals[e.tid].push_back({lo, hi});
    runLo = std::min(runLo, lo);
    runHi = std::max(runHi, hi);
  }

  std::vector<std::pair<std::uint64_t, std::string>> order;
  for (const auto& [name, p] : phases) order.emplace_back(p.firstStart, name);
  std::sort(order.begin(), order.end());
  for (const auto& [start, name] : order) {
    (void)start;
    PhaseAccum& p = phases[name];
    PhaseStat st;
    st.name = name;
    st.spans = p.spans;
    st.workers = static_cast<int>(p.byTid.size());
    const std::uint64_t wallNs = p.maxHi - p.minLo;
    st.wallMs = to_ms(wallNs);
    std::uint64_t busyNs = 0, critNs = 0;
    for (auto& [tid, ivs] : p.byTid) {
      (void)tid;
      const std::uint64_t u = union_ns(ivs);
      busyNs += u;
      critNs = std::max(critNs, u);
    }
    st.busyMs = to_ms(busyNs);
    st.criticalPathMs = to_ms(critNs);
    // Per-thread unions never exceed the phase wall, so this lands in
    // (0, 1]; the min() only absorbs floating-point rounding.
    st.parallelEfficiency = std::min(
        1.0, static_cast<double>(busyNs) /
                 (static_cast<double>(st.workers) * static_cast<double>(wallNs)));
    r.phases.push_back(std::move(st));
  }

  const std::uint64_t runWallNs = runHi > runLo ? runHi - runLo : 0;
  for (auto& [tid, ivs] : workerIntervals) {
    WorkerStat w;
    w.tid = tid;
    const std::uint64_t u = union_ns(ivs);
    w.busyMs = to_ms(u);
    w.utilization =
        runWallNs > 0
            ? std::min(1.0, static_cast<double>(u) / static_cast<double>(runWallNs))
            : 1.0;
    r.workers.push_back(w);
  }

  // ---- metrics delta ----------------------------------------------------
  const metrics::Snapshot cur = metrics::Registry::global().snapshot();
  for (const auto& [name, v] : cur.counters) {
    const auto bit = baseline_.counters.find(name);
    r.metricsDelta.counters[name] =
        v - (bit == baseline_.counters.end() ? 0 : bit->second);
  }
  r.metricsDelta.gauges = cur.gauges;  // last-write-wins values, not deltas
  for (const auto& [name, h] : cur.histograms) {
    metrics::HistogramSnapshot d = h;
    const auto bit = baseline_.histograms.find(name);
    if (bit != baseline_.histograms.end() && bit->second.bounds == h.bounds) {
      for (std::size_t i = 0; i < d.counts.size(); ++i)
        d.counts[i] -= bit->second.counts[i];
      d.count -= bit->second.count;
      d.sum -= bit->second.sum;
    }
    r.metricsDelta.histograms[name] = std::move(d);
  }

  // ---- perf -------------------------------------------------------------
  r.perf.compiledIn = perf::compiled_in();
  r.perf.enabled = perf::enabled();
  r.perf.available = perf::enabled() && perf::available();
  for (const auto& [name, v] : r.metricsDelta.counters) {
    if (name.rfind("perf.", 0) != 0) continue;
    if (ends_with(name, ".cycles")) r.perf.cycles += v;
    else if (ends_with(name, ".instructions")) r.perf.instructions += v;
    else if (ends_with(name, ".llc_misses")) r.perf.llcMisses += v;
    else if (ends_with(name, ".branch_misses")) r.perf.branchMisses += v;
  }

  // ---- volume audit -----------------------------------------------------
  if (auditArmed_) {
    VolumeAudit& a = r.audit;
    a.present = true;
    a.metricPrefix = auditPrefix_;
    a.modeledExpandWords = expectExpand_;
    a.modeledFoldWords = expectFold_;
    a.modeledMessages = expectMessages_;
    a.iterations = delta_counter(cur, baseline_, auditPrefix_ + ".iterations");
    a.measuredExpandWords = delta_counter(cur, baseline_, auditPrefix_ + ".expand.words");
    a.measuredFoldWords = delta_counter(cur, baseline_, auditPrefix_ + ".fold.words");
    a.measuredMessages = delta_counter(cur, baseline_, auditPrefix_ + ".messages");
    a.matches = a.measuredExpandWords == a.modeledExpandWords * a.iterations &&
                a.measuredFoldWords == a.modeledFoldWords * a.iterations &&
                a.measuredMessages == a.modeledMessages * a.iterations;
  }

  // ---- per-processor comm matrix ---------------------------------------
  if (comm_.present) {
    ProcCommStat c = comm_;
    long long total = 0, maxProc = 0;
    const std::size_t k = std::max(c.sendWords.size(), c.recvWords.size());
    for (std::size_t p = 0; p < k; ++p) {
      const long long s = p < c.sendWords.size() ? c.sendWords[p] : 0;
      const long long v = p < c.recvWords.size() ? c.recvWords[p] : 0;
      total += s;  // every word sent is received once; count it once
      maxProc = std::max(maxProc, s + v);
    }
    c.totalWords = total;
    c.maxProcWords = maxProc;
    c.avgProcWords = k > 0 ? 2.0 * static_cast<double>(total) / static_cast<double>(k)
                           : 0.0;
    c.imbalancePercent =
        c.avgProcWords > 0.0
            ? 100.0 * (static_cast<double>(maxProc) / c.avgProcWords - 1.0)
            : 0.0;
    r.comm = std::move(c);
  }

  return r;
}

// --------------------------------------------------------------- writer ----

void write_json(const RunReport& r, std::ostream& out) {
  json::Writer w(out);
  w.begin_object();
  w.field("run_report_version", r.version);
  w.field("tool", r.tool).field("command", r.command);
  w.field("status", r.status).field("error", r.error);
  w.field("wall_ms", r.wallMs).field("cpu_ms", r.cpuMs);

  w.key("info").begin_object();
  for (const auto& [k, v] : r.info) w.field(k, v);
  w.end_object();

  w.key("trace").begin_object();
  w.field("enabled", r.traceEnabled).field("events", r.traceEvents);
  w.field("dropped", r.traceDropped);
  w.end_object();

  w.key("phases").begin_array();
  for (const PhaseStat& p : r.phases) {
    w.begin_object();
    w.field("name", p.name).field("spans", p.spans).field("workers", p.workers);
    w.field("wall_ms", p.wallMs).field("busy_ms", p.busyMs);
    w.field("critical_path_ms", p.criticalPathMs);
    w.field("parallel_efficiency", p.parallelEfficiency);
    w.end_object();
  }
  w.end_array();

  w.key("workers").begin_array();
  for (const WorkerStat& wk : r.workers) {
    w.begin_object();
    w.field("tid", wk.tid).field("busy_ms", wk.busyMs).field("utilization", wk.utilization);
    w.end_object();
  }
  w.end_array();

  w.key("perf").begin_object();
  w.field("compiled_in", r.perf.compiledIn).field("enabled", r.perf.enabled);
  w.field("available", r.perf.available).field("cycles", r.perf.cycles);
  w.field("instructions", r.perf.instructions).field("llc_misses", r.perf.llcMisses);
  w.field("branch_misses", r.perf.branchMisses);
  w.end_object();

  const VolumeAudit& a = r.audit;
  w.key("volume_audit").begin_object().field("present", a.present);
  if (a.present) {
    w.field("metric_prefix", a.metricPrefix).field("iterations", a.iterations);
    w.field("modeled_expand_words", a.modeledExpandWords);
    w.field("modeled_fold_words", a.modeledFoldWords);
    w.field("modeled_messages", a.modeledMessages);
    w.field("measured_expand_words", a.measuredExpandWords);
    w.field("measured_fold_words", a.measuredFoldWords);
    w.field("measured_messages", a.measuredMessages);
    w.field("matches", a.matches);
  }
  w.end_object();

  const ProcCommStat& c = r.comm;
  w.key("proc_comm").begin_object().field("present", c.present);
  if (c.present) {
    w.field("total_words", c.totalWords).field("max_proc_words", c.maxProcWords);
    w.field("avg_proc_words", c.avgProcWords);
    w.field("imbalance_percent", c.imbalancePercent);
    w.key("send_words").begin_array();
    for (const long long x : c.sendWords) w.value(x);
    w.end_array();
    w.key("recv_words").begin_array();
    for (const long long x : c.recvWords) w.value(x);
    w.end_array();
  }
  w.end_object();

  w.key("metrics");
  metrics::write_json(w, r.metricsDelta);
  w.end_object();
}

void write_file(const RunReport& r, const std::string& pathOrDash) {
  json::write_output(pathOrDash, "report",
                     [&r](std::ostream& out) { write_json(r, out); });
}

Observability::Observability(const ArgParser& args, std::string tool,
                             std::string command)
    : tracePath_(args.flag("trace-out").value_or("")),
      metricsPath_(args.flag("metrics-out").value_or("")),
      reportPath_(args.flag("report-out").value_or("")),
      builder_(std::move(tool), std::move(command)) {
  if (!tracePath_.empty() || !reportPath_.empty()) trace::enable();
  if (args.has_switch("perf")) perf::set_enabled(true);
}

int Observability::finish() const {
  int rc = 0;
  const auto attempt = [&rc](const std::string& path, const auto& write) {
    if (path.empty()) return;
    try {
      write(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      rc = static_cast<int>(ErrorCode::kIo);
    }
  };
  attempt(tracePath_, trace::write_chrome_trace_file);
  attempt(metricsPath_, metrics::write_global_json);
  attempt(reportPath_, [this](const std::string& path) { write_file(builder_.build(), path); });
  return rc;
}

// -------------------------------------------------------------- renderer ----

namespace {

std::string pct(double unit) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * unit);
  return buf;
}

}  // namespace

void render_file(const std::string& path, std::ostream& out) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open report file: " + path, at_path(path));
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());

  // Every read is type-checked: a hand-edited report fails as a FormatError
  // naming the member, never renders defaults.
  const long long version = doc.int_at("run_report_version");
  out << "RunReport v" << version << ": " << doc.string_at("tool") << " "
      << doc.string_at("command") << " — status " << doc.string_at("status");
  if (!doc.string_at("error").empty()) out << " (" << doc.string_at("error") << ")";
  out << "\n";
  {
    char line[128];
    std::snprintf(line, sizeof line, "  wall %.2f ms, cpu %.2f ms\n",
                  doc.number_at("wall_ms"), doc.number_at("cpu_ms"));
    out << line;
  }
  const json::Value& info = doc.object_at("info");
  if (!info.object.empty()) {
    out << "  info:";
    for (const auto& member : info.object)
      out << " " << member.first << "=" << info.string_at(member.first);
    out << "\n";
  }
  const json::Value& tr = doc.object_at("trace");
  out << "  trace: " << (tr.bool_at("enabled") ? "enabled" : "disabled") << ", "
      << tr.int_at("events") << " events, " << tr.int_at("dropped") << " dropped\n";

  const std::vector<json::Value>& phases = doc.array_at("phases");
  if (!phases.empty()) {
    out << "\nphases (wall / busy / critical path, parallel efficiency):\n";
    Table t({"phase", "spans", "workers", "wall ms", "busy ms", "crit ms", "eff"});
    for (const json::Value& p : phases) {
      t.add_row({p.string_at("name"), Table::num(p.int_at("spans")),
                 Table::num(p.int_at("workers")), Table::num(p.number_at("wall_ms"), 3),
                 Table::num(p.number_at("busy_ms"), 3),
                 Table::num(p.number_at("critical_path_ms"), 3),
                 pct(p.number_at("parallel_efficiency"))});
    }
    out << t.to_string();
  }

  const std::vector<json::Value>& workers = doc.array_at("workers");
  if (!workers.empty()) {
    out << "\nworkers:\n";
    Table t({"tid", "busy ms", "utilization"});
    for (const json::Value& w : workers) {
      t.add_row({Table::num(w.int_at("tid")), Table::num(w.number_at("busy_ms"), 3),
                 pct(w.number_at("utilization"))});
    }
    out << t.to_string();
  }

  const json::Value& perf = doc.object_at("perf");
  out << "\nperf counters: ";
  if (!perf.bool_at("compiled_in")) {
    out << "compiled out (FGHP_PERF=OFF)\n";
  } else if (!perf.bool_at("enabled")) {
    out << "disabled (run with --perf)\n";
  } else if (!perf.bool_at("available")) {
    out << "unavailable on this kernel/container (counters read zero)\n";
  } else {
    const double cycles = perf.number_at("cycles");
    const double instr = perf.number_at("instructions");
    char line[256];
    std::snprintf(line, sizeof line,
                  "%.3g cycles, %.3g instructions (IPC %.2f), %.3g LLC misses, "
                  "%.3g branch misses\n",
                  cycles, instr, cycles > 0 ? instr / cycles : 0.0,
                  perf.number_at("llc_misses"), perf.number_at("branch_misses"));
    out << line;
  }

  const json::Value& audit = doc.object_at("volume_audit");
  if (audit.bool_at("present")) {
    out << "volume audit [" << audit.string_at("metric_prefix") << "]: "
        << (audit.bool_at("matches") ? "MATCH" : "MISMATCH") << " — "
        << audit.int_at("iterations") << " iterations; expand "
        << audit.int_at("modeled_expand_words") << " modeled * iters vs "
        << audit.int_at("measured_expand_words") << " measured; fold "
        << audit.int_at("modeled_fold_words") << " vs "
        << audit.int_at("measured_fold_words") << "; messages "
        << audit.int_at("modeled_messages") << " vs "
        << audit.int_at("measured_messages") << "\n";
  } else {
    out << "volume audit: not armed\n";
  }

  const json::Value& comm = doc.object_at("proc_comm");
  if (comm.bool_at("present")) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "proc comm: K=%zu, %lld total words, max/proc %lld "
                  "(avg %.1f, imbalance %.1f%%)\n",
                  comm.array_at("send_words").size(), comm.int_at("total_words"),
                  comm.int_at("max_proc_words"), comm.number_at("avg_proc_words"),
                  comm.number_at("imbalance_percent"));
    out << line;
  }

  const json::Value& metrics = doc.object_at("metrics");
  out << "metrics: " << metrics.object_at("counters").object.size() << " counters, "
      << metrics.object_at("gauges").object.size() << " gauges, "
      << metrics.object_at("histograms").object.size()
      << " histograms (deltas over the run; full values in the JSON)\n";
}

}  // namespace fghp::report
