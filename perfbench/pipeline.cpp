// Pipeline benchmark harness. Runs one workload as a closed loop of passes —
// input -> parse -> model build -> partition -> decode -> plan build ->
// compile -> N serial and N threaded iterations -> correctness gate — each
// pass starting only after the previous one finished, and writes every
// pass's raw measurements as one JSON document. perfbench/run.py builds this
// binary, runs it and turns the document into the benchmark's metrics.
//
// Every layer is timed from outside, around its public call, by the spans
// recorded here (name, start, end, parent, pass id). With --trace 1 every
// other pass also turns on the library tracer and reads the RunReport's
// phase statistics; the untraced passes in between give the tracing
// overhead.
//
//   perfbench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                      --workdir DIR --out FILE
//                      [--passes N] [--corrupt-pass P]
//
// --passes runs exactly N passes instead of filling --seconds; --corrupt-pass
// perturbs one pass's output after it is computed, so the self-tests can
// check that the gate counts it as failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/volume.hpp"
#include "exec/compiled.hpp"
#include "hypergraph/metrics.hpp"
#include "models/finegrain.hpp"
#include "partition/geo/geometric.hpp"
#include "partition/hg/partitioner.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "sparse/testsuite.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "spmv/compiled.hpp"
#include "spmv/plan.hpp"
#include "spmv/reference.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace fghp;
using Clock = std::chrono::steady_clock;

constexpr idx_t kParts = 16;
constexpr double kEpsilon = 0.03;
// Per-thread trace ring: large enough that one multilevel partition of the
// workloads below drops no span (drops are reported per pass).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
// Extra threaded iterations of a traced pass, each analysed by its own
// RunReport for the per-superstep efficiencies.
constexpr int kReportIterations = 10;

enum class Kind { kSpmv, kSpgemm };

struct Workload {
  const char* name;
  Kind kind;
  const char* matrix;  ///< suite name, or "skewed4m"
  bool fromFile;       ///< written to .mtx before timing, parsed every pass
  part::PartitionMethod method;
  int iterations;      ///< timed serial and threaded iterations per pass
};

// Why these four: perfbench/README.md.
const Workload kWorkloads[] = {
    {"ken11-multilevel", Kind::kSpmv, "ken-11", true, part::PartitionMethod::kMultilevel, 300},
    {"mod2-geometric", Kind::kSpmv, "mod2", true, part::PartitionMethod::kGeometric, 200},
    {"skewed4m-geometric", Kind::kSpmv, "skewed4m", false,
     part::PartitionMethod::kGeometric, 100},
    {"spgemm-sherman3", Kind::kSpgemm, "sherman3", false,
     part::PartitionMethod::kMultilevel, 200},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

sparse::Csr make_input(const Workload& w, std::uint64_t seed) {
  if (std::string(w.matrix) != "skewed4m") return sparse::make_matrix(w.matrix, seed, 1.0);
  // The paper's LP class at a size whose executor working set exceeds the
  // machine's total L2 (same shape as bench_spmv's skewed-lp roofline row).
  sparse::SkewedParams p;
  p.n = 400000;
  p.targetNnz = p.n * 10;
  p.numBlocks = 16;
  p.couplingWidth = 64;
  return sparse::skewed_square(p, seed);
}

// ---------------------------------------------------------------------------
// Spans and per-pass records.

struct Span {
  const char* name;
  const char* parent;
  int pass;
  double startMs, endMs;
};

double ms_since(Clock::time_point epoch) {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch).count();
}

struct PassRecord {
  int id = 0;
  bool traced = false;
  bool ok = false;
  std::string error;
  std::uint64_t inputHash = 0;
  double setupS = 0.0;
  std::vector<double> serialMs, mtMs;
  std::map<std::string, double> counts;
  std::vector<Span> spans;
};

/// Records bench-side spans of one pass, all children of the pass span.
class PassSpans {
 public:
  PassSpans(Clock::time_point epoch, PassRecord& rec)
      : epoch_(epoch), rec_(rec), start_(ms_since(epoch)) {}

  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    const double t0 = ms_since(epoch_);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      rec_.spans.push_back({name, "pass", rec_.id, t0, ms_since(epoch_)});
    } else {
      auto r = f();
      rec_.spans.push_back({name, "pass", rec_.id, t0, ms_since(epoch_)});
      return r;
    }
  }

  double elapsed_s() const { return (ms_since(epoch_) - start_) / 1000.0; }
  void close() { rec_.spans.push_back({"pass", "", rec_.id, start_, ms_since(epoch_)}); }

 private:
  Clock::time_point epoch_;
  PassRecord& rec_;
  double start_;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a(std::uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

std::uint64_t matrix_hash(const sparse::Csr& a) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, a.row_ptr());
  h = fnv1a(h, a.col_ind());
  return fnv1a(h, a.values());
}

template <class T>
double vec_bytes(const std::vector<T>& v) {
  return static_cast<double>(v.size() * sizeof(T));
}

/// Bytes held by a compiled execution image (every table it owns).
double image_bytes(const exec::Image& im) {
  double b = vec_bytes(im.groupPtr) + vec_bytes(im.rhsSlot) + vec_bytes(im.lhsSlot) +
             vec_bytes(im.constVals);
  for (const exec::InSpaceImage& s : im.in)
    b += vec_bytes(s.off) + vec_bytes(s.slotGlobal) + vec_bytes(s.ownOff) +
         vec_bytes(s.ownId) + vec_bytes(s.ownSlot) + vec_bytes(s.sendOff) +
         vec_bytes(s.sendMsgOff) + vec_bytes(s.sendId) + vec_bytes(s.recvOff) +
         vec_bytes(s.recvSlot) + vec_bytes(s.recvSrc);
  const exec::OutSpaceImage& o = im.out;
  b += vec_bytes(o.off) + vec_bytes(o.ownOff) + vec_bytes(o.ownId) + vec_bytes(o.ownSlot) +
       vec_bytes(o.sendOff) + vec_bytes(o.sendMsgOff) + vec_bytes(o.sendSlot) +
       vec_bytes(o.sendId) + vec_bytes(o.recvOff) + vec_bytes(o.recvId) +
       vec_bytes(o.recvSrc);
  return b;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::abs(e));
  return m;
}

/// Parallel efficiency of one phase of a RunReport (0 when it has no span).
double efficiency(const report::RunReport& r, const std::string& phase) {
  for (const report::PhaseStat& p : r.phases)
    if (p.name == phase) return p.parallelEfficiency;
  return 0.0;
}

/// Times the partitioner call; on a traced pass, also reads the RunReport
/// over exactly that call for the recursive-bisection attribution.
template <class F>
auto timed_partition(PassSpans& spans, PassRecord& rec, F&& partition) {
  if (!rec.traced) return spans.time("partition", partition);
  std::unique_ptr<report::Builder> rep;
  spans.time("trace.report", [&] {
    trace::reset();
    rep = std::make_unique<report::Builder>("perfbench", "partition");
  });
  auto result = spans.time("partition", partition);
  spans.time("trace.report", [&] {
    const report::RunReport r = rep->build();
    double utilMin = 1.0;
    for (const report::WorkerStat& w : r.workers) utilMin = std::min(utilMin, w.utilization);
    rec.counts["rb_node_eff"] = efficiency(r, "rb.node");
    rec.counts["worker_util_min"] = utilMin;
    rec.counts["trace_dropped"] = static_cast<double>(r.traceDropped);
  });
  return result;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Inputs {
  sparse::Csr matrix;    ///< generated input (in-memory workloads) / the written one
  std::string path;      ///< .mtx file of file-fed workloads
  double fileBytes = 0;
  std::vector<double> x; ///< SpMV input vector
};

struct RunContext {
  const Workload& w;
  const Inputs& in;
  std::uint64_t seed;
  idx_t threads;
  Clock::time_point epoch;
  int corruptPass;
};

part::PartitionConfig partition_config(const RunContext& ctx) {
  part::PartitionConfig cfg;
  cfg.epsilon = kEpsilon;
  cfg.seed = ctx.seed;
  cfg.method = ctx.w.method;
  cfg.numThreads = ctx.threads;
  return cfg;
}

/// Runs the workload's timed serial, then threaded iterations of
/// `step(mt, stats)`, each after one untimed warm-up, and — on a traced
/// pass — the extra report-analysed threaded iterations.
template <class Step>
void iterate(const RunContext& ctx, PassRecord& rec, PassSpans& spans, Step&& step,
             exec::ExecStats& serialStats, exec::ExecStats& mtStats) {
  const int iters = ctx.w.iterations;
  spans.time("exec.iter_serial", [&] {
    step(false, serialStats);
    for (int i = 0; i < iters; ++i) {
      const auto t0 = Clock::now();
      step(false, serialStats);
      rec.serialMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
  });
  double retries = 0, fallbacks = 0;
  spans.time("exec.iter_mt", [&] {
    step(true, mtStats);
    for (int i = 0; i < iters; ++i) {
      const auto t0 = Clock::now();
      step(true, mtStats);
      rec.mtMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      retries += mtStats.taskRetries;
      fallbacks += mtStats.serialFallback ? 1 : 0;
    }
  });
  rec.counts["task_retries"] = retries;
  rec.counts["serial_fallbacks"] = fallbacks;
  if (!rec.traced) return;
  spans.time("trace.report", [&] {
    std::vector<double> expand, fold;
    report::Builder rep("perfbench", "iteration");
    exec::ExecStats scratch;
    for (int i = 0; i < kReportIterations; ++i) {
      trace::reset();
      step(true, scratch);
      const report::RunReport r = rep.build();
      expand.push_back(efficiency(r, "exec.expand"));
      fold.push_back(efficiency(r, "exec.fold"));
    }
    rec.counts["expand_eff"] = median(expand);
    rec.counts["fold_eff"] = median(fold);
  });
}

/// Gate shared by both workloads: the paper's theorem (measured words ==
/// lambda-1 cutsize == analyzer words, measured messages == analyzer
/// messages) and the balance constraint.
void gate_traffic(std::vector<std::string>& fails, const exec::ExecStats& serialStats,
                  const exec::ExecStats& mtStats, weight_t cutsize, weight_t analyzedWords,
                  long long analyzedMsgs, weight_t maxLoad, weight_t totalLoad) {
  if (serialStats.wordsSent != cutsize || mtStats.wordsSent != cutsize ||
      analyzedWords != cutsize)
    fails.push_back("volume: serial " + std::to_string(serialStats.wordsSent) + ", threaded " +
                    std::to_string(mtStats.wordsSent) + ", cutsize " +
                    std::to_string(cutsize) + ", analyzer " + std::to_string(analyzedWords));
  if (serialStats.messagesSent != analyzedMsgs || mtStats.messagesSent != analyzedMsgs)
    fails.push_back("messages: serial " + std::to_string(serialStats.messagesSent) +
                    ", threaded " + std::to_string(mtStats.messagesSent) + ", analyzer " +
                    std::to_string(analyzedMsgs));
  const weight_t cap = hg::balance_cap(totalLoad, kParts, kEpsilon);
  if (maxLoad > cap)
    fails.push_back("imbalance: max part " + std::to_string(maxLoad) + " > cap " +
                    std::to_string(cap));
}

void gate_identical(std::vector<std::string>& fails, const std::vector<double>& serial,
                    const std::vector<double>& mt) {
  if (serial.size() != mt.size() ||
      std::memcmp(serial.data(), mt.data(), serial.size() * sizeof(double)) != 0)
    fails.push_back("threaded result is not bit-identical to the serial one");
}

void gate_close(std::vector<std::string>& fails, const char* what,
                const std::vector<double>& got, const std::vector<double>& ref, double tol) {
  double err = got.size() == ref.size() ? 0.0 : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < got.size() && i < ref.size(); ++i)
    err = std::max(err, std::abs(got[i] - ref[i]));
  if (!(err <= tol)) {
    std::ostringstream os;
    os << what << ": max error " << err << " > bound " << tol;
    fails.push_back(os.str());
  }
}

void finish_gate(PassRecord& rec, const std::vector<std::string>& fails) {
  rec.ok = fails.empty();
  for (const std::string& f : fails) rec.error += (rec.error.empty() ? "" : "; ") + f;
}

// ---------------------------------------------------------------------------
// The two pass bodies.

void spmv_pass(const RunContext& ctx, PassRecord& rec) {
  const Workload& w = ctx.w;
  PassSpans spans(ctx.epoch, rec);
  sparse::Csr parsed;
  if (w.fromFile)
    parsed = spans.time("sparse.parse",
                        [&] { return sparse::read_matrix_market_file(ctx.in.path); });
  const sparse::Csr& a = w.fromFile ? parsed : ctx.in.matrix;
  const part::PartitionConfig cfg = partition_config(ctx);

  model::Decomposition d;
  weight_t cutsize = 0;
  double imbalance = 0.0;
  idx_t recoveries = 0;
  double vertices = 0.0, pins = 0.0;
  if (w.method == part::PartitionMethod::kMultilevel) {
    const model::FineGrainModel m =
        spans.time("models.build", [&] { return model::build_finegrain(a); });
    vertices = m.h.num_vertices();
    pins = m.h.num_pins();
    const part::HgResult r = timed_partition(
        spans, rec, [&] { return part::partition_hypergraph(m.h, kParts, cfg); });
    cutsize = r.cutsize;
    imbalance = r.imbalance;
    recoveries = r.numRecoveries;
    d = spans.time("models.decode",
                   [&] { return model::decode_finegrain(a, m, r.partition); });
  } else {
    const model::FineGrainPoints m =
        spans.time("models.build", [&] { return model::build_finegrain_points(a); });
    vertices = m.pts.num_vertices();
    pins = 2.0 * vertices;  // each point lies on its row line and its column line
    const part::geo::GeoResult r = timed_partition(spans, rec, [&] {
      return part::geo::partition_points_geometric(m.pts, kParts, cfg);
    });
    cutsize = r.cutsize;
    imbalance = r.imbalance;
    recoveries = r.numRecoveries;
    d = spans.time("models.decode",
                   [&] { return model::decode_finegrain(a, m, r.partition); });
  }
  const spmv::SpmvPlan plan = spans.time("spmv.plan", [&] { return spmv::build_plan(a, d); });
  spmv::ExecSession session = spans.time("exec.compile", [&] { return spmv::ExecSession(plan); });
  rec.setupS = spans.elapsed_s();

  std::vector<double> ySerial, yMt;
  exec::ExecStats serialStats, mtStats;
  iterate(
      ctx, rec, spans,
      [&](bool mt, exec::ExecStats& st) {
        if (mt)
          session.run_mt(ctx.in.x, yMt, ctx.threads, &st);
        else
          session.run(ctx.in.x, ySerial, &st);
      },
      serialStats, mtStats);
  if (rec.id == ctx.corruptPass && !ySerial.empty()) ySerial[0] += 1.0;

  const comm::CommStats cs = spans.time("comm.analyze", [&] { return comm::analyze(a, d); });
  spans.time("gate", [&] {
    std::vector<std::string> fails;
    const std::vector<double> yRef = spmv::multiply(a, ctx.in.x);
    idx_t maxRow = 0;
    for (idx_t i = 0; i < a.num_rows(); ++i) maxRow = std::max(maxRow, a.row_size(i));
    // |y - y_ref| <= eps * max_row_len * max|a| * max|x| (SNIPPETS.md, snippet 1).
    const double tol = std::numeric_limits<double>::epsilon() * maxRow *
                       max_abs(a.values()) * max_abs(ctx.in.x);
    gate_close(fails, "spmv", ySerial, yRef, tol);
    gate_identical(fails, ySerial, yMt);
    const model::LoadStats loads = model::compute_loads(a, d);
    gate_traffic(fails, serialStats, mtStats, cutsize, cs.totalWords,
                 static_cast<long long>(cs.expandMessages) + cs.foldMessages, loads.maxLoad,
                 a.nnz());
    finish_gate(rec, fails);
    rec.inputHash = matrix_hash(a);
  });
  spans.close();

  const double n = a.num_rows(), nnz = a.nnz();
  rec.counts["volume_words"] = static_cast<double>(cs.totalWords);
  rec.counts["messages"] = static_cast<double>(cs.expandMessages + cs.foldMessages);
  rec.counts["cutsize"] = static_cast<double>(cutsize);
  rec.counts["imbalance_pct"] = 100.0 * imbalance;
  rec.counts["recoveries"] = recoveries;
  rec.counts["vertices"] = vertices;
  rec.counts["pins"] = pins;
  rec.counts["image_bytes"] = image_bytes(session.compiled());
  // Compulsory traffic of one serial iteration, computed from array sizes:
  // value + column index per nonzero, row pointers, x, y, and every
  // communicated word written to and read from a buffer.
  rec.counts["bytes_per_iter"] =
      12.0 * nnz + 4.0 * (n + 1) + 8.0 * a.num_cols() + 8.0 * n + 16.0 * cs.totalWords;
  rec.counts["words_per_iter"] = static_cast<double>(mtStats.wordsSent);
  rec.counts["msgs_per_iter"] = static_cast<double>(mtStats.messagesSent);
  rec.counts["max_proc_words"] = static_cast<double>(cs.maxProcWords);
  rec.counts["avg_msgs_per_proc"] = cs.avgMessagesPerProc;
  rec.counts["file_bytes"] = w.fromFile ? ctx.in.fileBytes : 0.0;
}

void spgemm_pass(const RunContext& ctx, PassRecord& rec) {
  PassSpans spans(ctx.epoch, rec);
  const sparse::Csr& a = ctx.in.matrix;
  const part::PartitionConfig cfg = partition_config(ctx);

  const spgemm::TaskGraph t =
      spans.time("spgemm.tasks", [&] { return spgemm::build_tasks(a, a); });
  const spgemm::SpgemmModel m =
      spans.time("spgemm.model", [&] { return spgemm::build_spgemm_finegrain(t); });
  const part::HgResult r = timed_partition(
      spans, rec, [&] { return part::partition_hypergraph(m.h, kParts, cfg); });
  const spgemm::SpgemmDecomposition d = spans.time(
      "models.decode", [&] { return spgemm::decode_spgemm_finegrain(t, m, r.partition); });
  const exec::Schedule sched =
      spans.time("spgemm.schedule", [&] { return spgemm::build_schedule(t, d); });
  exec::Session session = spans.time("exec.compile", [&] { return exec::Session(sched); });
  rec.setupS = spans.elapsed_s();

  const std::array<std::span<const double>, 2> ins{std::span<const double>(a.values()),
                                                   std::span<const double>(a.values())};
  std::vector<double> cSerial, cMt;
  exec::ExecStats serialStats, mtStats;
  iterate(
      ctx, rec, spans,
      [&](bool mt, exec::ExecStats& st) {
        if (mt)
          session.run_mt(ins, cMt, ctx.threads, &st);
        else
          session.run(ins, cSerial, &st);
      },
      serialStats, mtStats);
  if (rec.id == ctx.corruptPass && !cSerial.empty()) cSerial[0] += 1.0;

  const spgemm::SpgemmCommStats cs =
      spans.time("comm.analyze", [&] { return spgemm::analyze(t, d); });
  spans.time("gate", [&] {
    std::vector<std::string> fails;
    const std::vector<double> cRef = spgemm::reference_multiply(a, a, t);
    std::vector<idx_t> perC(static_cast<std::size_t>(t.num_c()), 0);
    for (idx_t g : t.taskC) ++perC[static_cast<std::size_t>(g)];
    const idx_t maxPerC = perC.empty() ? 0 : *std::max_element(perC.begin(), perC.end());
    // The SpMV bound with the pair count of a C entry as the row length.
    const double amax = max_abs(a.values());
    const double tol = std::numeric_limits<double>::epsilon() * maxPerC * amax * amax;
    gate_close(fails, "spgemm", cSerial, cRef, tol);
    gate_identical(fails, cSerial, cMt);
    std::vector<weight_t> load(kParts, 0);
    for (idx_t p : d.taskOwner) ++load[static_cast<std::size_t>(p)];
    gate_traffic(fails, serialStats, mtStats, r.cutsize, cs.totalWords, cs.totalMessages,
                 *std::max_element(load.begin(), load.end()), t.num_tasks());
    finish_gate(rec, fails);
    rec.inputHash = matrix_hash(a);
  });
  spans.close();

  rec.counts["volume_words"] = static_cast<double>(cs.totalWords);
  rec.counts["messages"] = static_cast<double>(cs.totalMessages);
  rec.counts["cutsize"] = static_cast<double>(r.cutsize);
  rec.counts["imbalance_pct"] = 100.0 * r.imbalance;
  rec.counts["recoveries"] = r.numRecoveries;
  rec.counts["vertices"] = m.h.num_vertices();
  rec.counts["pins"] = m.h.num_pins();
  rec.counts["image_bytes"] = image_bytes(session.image());
  // Per task: two entry slots and two gathered values; A and B values in,
  // C out, and every communicated word written to and read from a buffer.
  rec.counts["bytes_per_iter"] = 24.0 * t.num_tasks() + 8.0 * (t.numA + t.numB) +
                                 8.0 * t.num_c() + 16.0 * cs.totalWords;
  rec.counts["words_per_iter"] = static_cast<double>(mtStats.wordsSent);
  rec.counts["msgs_per_iter"] = static_cast<double>(mtStats.messagesSent);
  rec.counts["max_proc_words"] = static_cast<double>(cs.maxProcWords);
  rec.counts["avg_msgs_per_proc"] = 2.0 * cs.totalMessages / kParts;
  rec.counts["tasks"] = t.num_tasks();
  rec.counts["nnz_c"] = t.num_c();
  rec.counts["file_bytes"] = 0.0;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_num(v[i]);
  return out + "]";
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void write_document(std::ostream& os, const RunContext& ctx, int trace,
                    const std::vector<PassRecord>& passes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  os << "{\"workload\": " << json_str(ctx.w.name) << ", \"seed\": " << ctx.seed
     << ", \"trace\": " << trace << ", \"k\": " << kParts << ", \"threads\": " << ctx.threads
     << ", \"iterations_per_pass\": " << ctx.w.iterations
     << ",\n \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE) << "},\n \"input\": {\"rows\": "
     << ctx.in.matrix.num_rows() << ", \"nnz\": " << ctx.in.matrix.nnz()
     << ", \"hash\": " << json_str(hex(matrix_hash(ctx.in.matrix)))
     << ", \"file_bytes\": " << json_num(ctx.in.fileBytes) << "},\n \"peak_rss_mb\": "
     << json_num(static_cast<double>(ru.ru_maxrss) / 1024.0) << ",\n \"passes\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << p.id
       << ", \"traced\": " << (p.traced ? "true" : "false")
       << ", \"ok\": " << (p.ok ? "true" : "false") << ", \"error\": " << json_str(p.error)
       << ", \"input_hash\": " << json_str(hex(p.inputHash))
       << ", \"setup_s\": " << json_num(p.setupS) << ",\n   \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : p.counts) {
      os << (first ? "" : ", ") << json_str(k) << ": " << json_num(v);
      first = false;
    }
    os << "},\n   \"spans\": [";
    for (std::size_t s = 0; s < p.spans.size(); ++s) {
      const Span& sp = p.spans[s];
      os << (s ? ", " : "") << "{\"name\": " << json_str(sp.name)
         << ", \"parent\": " << json_str(sp.parent) << ", \"pass\": " << sp.pass
         << ", \"start_ms\": " << json_num(sp.startMs) << ", \"end_ms\": " << json_num(sp.endMs)
         << "}";
    }
    os << "],\n   \"serial_ms\": " << json_array(p.serialMs)
       << ",\n   \"mt_ms\": " << json_array(p.mtMs) << "}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload, workdir, out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int passes = 0;  ///< 0 = fill --seconds
  int corruptPass = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--workdir") a.workdir = val;
    else if (key == "--out") a.out = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--passes") a.passes = std::stoi(val);
    else if (key == "--corrupt-pass") a.corruptPass = std::stoi(val);
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty() || a.workdir.empty() || a.out.empty())
    throw std::invalid_argument("--workload, --workdir and --out are required");
  return a;
}

Inputs prepare_inputs(const Workload& w, const Args& args) {
  Inputs in;
  in.matrix = make_input(w, args.seed);
  if (w.fromFile) {
    const std::filesystem::path dir = std::filesystem::path(args.workdir) / "inputs";
    std::filesystem::create_directories(dir);
    in.path = (dir / (std::string(w.name) + "-s" + std::to_string(args.seed) + ".mtx")).string();
    const std::string tmp = in.path + ".tmp";
    sparse::write_matrix_market_file(tmp, in.matrix);
    std::filesystem::rename(tmp, in.path);
    in.fileBytes = static_cast<double>(std::filesystem::file_size(in.path));
  }
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  in.x.resize(static_cast<std::size_t>(in.matrix.num_cols()));
  for (double& v : in.x) v = rng.uniform01() - 0.5;
  return in;
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  const Inputs in = prepare_inputs(w, args);
  const idx_t threads =
      static_cast<idx_t>(std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4));
  const RunContext ctx{w, in, args.seed, threads, Clock::now(), args.corruptPass};

  // Closed loop: the next pass starts when the previous one has finished.
  // A traced run alternates untraced and traced passes and needs at least
  // two of each.
  const int minPasses = args.trace ? 4 : 3;
  std::vector<PassRecord> passes;
  const auto start = Clock::now();
  for (int id = 0;; ++id) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (args.passes > 0 ? id >= args.passes : elapsed >= args.seconds && id >= minPasses)
      break;
    PassRecord rec;
    rec.id = id;
    rec.traced = args.trace != 0 && id % 2 == 1;
    if (rec.traced) {
      trace::enable(kTraceCapacity);
      trace::reset();
    }
    try {
      if (w.kind == Kind::kSpmv)
        spmv_pass(ctx, rec);
      else
        spgemm_pass(ctx, rec);
    } catch (const std::exception& e) {
      rec.ok = false;
      rec.error = std::string("exception: ") + e.what();
    }
    if (rec.traced) {
      trace::disable();
      trace::reset();
    }
    std::fprintf(stderr, "pass %d%s: %s setup %.3f s%s%s\n", id, rec.traced ? " (traced)" : "",
                 rec.ok ? "ok" : "FAILED", rec.setupS, rec.ok ? "" : " — ",
                 rec.error.c_str());
    passes.push_back(std::move(rec));
  }

  std::ofstream os(args.out);
  write_document(os, ctx, args.trace, passes);
  if (!os) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_pipeline: %s\n", e.what());
    return 2;
  }
}
