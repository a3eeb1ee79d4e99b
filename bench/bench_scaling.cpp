// Ablation A4 — partitioner runtime scaling: time versus matrix size (via
// the suite's scale knob) and versus K, for all three models, plus thread
// scaling of the task-parallel recursive bisection with the per-phase
// busy-time breakdown read from the run's trace. The paper's §4
// expectation: the fine-grain model costs ~2.4x the 1D hypergraph model and
// ~7.3x the graph model, because it has Z vertices and 2x the pins/nets.
//
// Knobs: FGHP_MATRICES (first entry used; default ken-11), FGHP_K,
// FGHP_SCALE, FGHP_THREADS (upper bound of the thread sweep in (c)).
#include <cstdio>

#include "bench_common.hpp"
#include "partition/phase.hpp"

int main() {
  using namespace fghp;
  bench::BenchEnv env = bench::load_env();
  const std::string name = env.matrices.empty() ? "ken-11" : env.matrices.front();
  constexpr bench::Model kModels[] = {bench::Model::kGraph1d, bench::Model::kHypergraph1d,
                                      bench::Model::kFineGrain2d};

  std::printf("Ablation A4 — partitioner runtime scaling on '%s'\n\n", name.c_str());

  std::printf("(a) time vs matrix scale (K = 16)\n");
  Table ta({"scale", "rows", "nnz", "graph-1d[s]", "hyper-1d[s]", "finegrain[s]", "fg/graph"});
  for (double scale : {0.125, 0.25, 0.5, 1.0}) {
    const sparse::Csr a = sparse::make_matrix(name, 1, scale);
    double secs[3] = {0, 0, 0};
    for (int m = 0; m < 3; ++m) secs[m] = bench::run_once(a, kModels[m], 16, 1).seconds;
    ta.add_row({Table::num(scale, 3), Table::num(static_cast<long long>(a.num_rows())),
                Table::num(static_cast<long long>(a.nnz())), Table::num(secs[0], 3),
                Table::num(secs[1], 3), Table::num(secs[2], 3),
                Table::num(secs[0] > 0 ? secs[2] / secs[0] : 0.0, 1) + "x"});
  }
  ta.print();

  std::printf("\n(b) time vs K (scale = %.2f)\n", env.scale);
  Table tb({"K", "graph-1d[s]", "hyper-1d[s]", "finegrain[s]", "hg/graph", "fg/graph"});
  const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
  for (idx_t K : {2, 4, 8, 16, 32, 64}) {
    double secs[3] = {0, 0, 0};
    for (int m = 0; m < 3; ++m) secs[m] = bench::run_once(a, kModels[m], K, 1).seconds;
    tb.add_row({Table::num(static_cast<long long>(K)), Table::num(secs[0], 3),
                Table::num(secs[1], 3), Table::num(secs[2], 3),
                Table::num(secs[0] > 0 ? secs[1] / secs[0] : 0.0, 1) + "x",
                Table::num(secs[0] > 0 ? secs[2] / secs[0] : 0.0, 1) + "x"});
  }
  tb.print();

  // (c) Thread scaling of the fine-grain partitioner — the dominant cost of
  // the whole reproduction. Deterministic across thread counts: the 'cut'
  // column must be identical in every row (DESIGN.md invariant 7). Each run
  // is traced, and the phase columns are the RunReport busy time of its
  // "rb.phase" spans, summed over threads (they exceed wall time once the
  // recursion tree forks). A run whose trace dropped events would
  // under-report its phases, so it fails the bench.
  const int maxThreads = ThreadPool::default_num_threads();
  std::printf("\n(c) fine-grain thread scaling (K = 64, scale = %.2f, up to %d threads)\n",
              env.scale, maxThreads);
  std::vector<idx_t> threadCounts{1};
  for (idx_t t = 2; t < static_cast<idx_t>(maxThreads); t *= 2) threadCounts.push_back(t);
  if (maxThreads > 1) threadCounts.push_back(static_cast<idx_t>(maxThreads));
  Table tc({"threads", "time[s]", "speedup", "cut", "coarsen[s]", "initial[s]", "refine[s]",
            "extract[s]"});
  double serialSecs = 0.0;
  const bool wasTracing = trace::enabled();
  trace::enable();
  for (idx_t t : threadCounts) {
    part::PartitionConfig cfg;
    cfg.seed = 1;
    cfg.numThreads = t;
    trace::reset();
    const report::Builder rep("bench_scaling", "partition");
    const model::ModelRun run = model::run_finegrain(a, 64, cfg);
    const report::RunReport r = rep.build();
    if (r.traceDropped > 0) {
      std::fprintf(stderr, "error: threads=%d dropped %lld trace events\n",
                   static_cast<int>(t), r.traceDropped);
      return 1;
    }
    auto busy_s = [&](part::Phase phase) {
      for (const report::PhaseStat& p : r.phases)
        if (p.name == part::phase_name(phase)) return p.busyMs * 1e-3;
      return 0.0;
    };
    if (t == 1) serialSecs = run.partitionSeconds;
    tc.add_row({Table::num(static_cast<long long>(t)), Table::num(run.partitionSeconds, 3),
                Table::num(run.partitionSeconds > 0 ? serialSecs / run.partitionSeconds : 0.0,
                           2) +
                    "x",
                Table::num(static_cast<long long>(run.objective)),
                Table::num(busy_s(part::Phase::kCoarsen), 3),
                Table::num(busy_s(part::Phase::kInitial), 3),
                Table::num(busy_s(part::Phase::kRefine), 3),
                Table::num(busy_s(part::Phase::kExtract), 3)});
  }
  if (!wasTracing) trace::disable();
  tc.print();
  return 0;
}
