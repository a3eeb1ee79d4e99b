// Command-line decomposition tool for real matrices: reads a Matrix Market
// file, decomposes it with the chosen model, prints the Table 2-style
// metrics, and optionally writes the per-nonzero / per-vector owner maps.
// This is the bridge from the bundled synthetic suite to the actual UF /
// netlib matrices the paper used, when you have them on disk.
//
//   ./partition_mtx matrix.mtx [--model finegrain|hyper1d|graph|checkerboard]
//                   [--method multilevel|geometric|geometric-fm|streaming]
//                   [--k 16] [--eps 0.03] [--seed 1] [--out owners.txt]
//                   [--timeout-ms MS] [--no-degrade]
//                   [--trace-out trace.json] [--metrics-out metrics.json|-]
//                   [--report-out report.json|-] [--perf]
//
// --method selects the fine-grain partitioning engine (DESIGN.md §15):
// the paper's multilevel stack, the geometric fast path, geometric + one
// FM sweep, or one-pass streaming. Only --model finegrain dispatches on it.
//
// --timeout-ms (or FGHP_TIMEOUT_MS; the flag wins) puts a deadline on the
// partitioning work. By default an expiring deadline degrades gracefully —
// the tool still returns a valid, balanced decomposition and reports how
// many subproblems were demoted; with --no-degrade it exits 9 instead.
// Observability files are written even when the run fails, and the typed
// error exit code always wins over any export failure.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "comm/volume.hpp"
#include "models/checkerboard.hpp"
#include "models/decomp_io.hpp"
#include "models/finegrain.hpp"
#include "models/graph_model.hpp"
#include "models/hypergraph1d.hpp"
#include "sparse/mmio.hpp"
#include "sparse/stats.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/perf_counters.hpp"
#include "util/report.hpp"

namespace {

using namespace fghp;

long resolve_timeout_ms(const ArgParser& args) {
  if (const auto flag = args.flag("timeout-ms")) return std::stol(*flag);
  if (const char* env = std::getenv("FGHP_TIMEOUT_MS")) return std::stol(env);
  return -1;
}

int run(const ArgParser& args, report::Builder& rep) {
  const std::string path = args.positional().front();
  const std::string modelName = args.flag("model").value_or("finegrain");
  const auto k = static_cast<idx_t>(args.flag_long("k", 16));
  const auto seed = static_cast<std::uint64_t>(args.flag_long("seed", 1));

  const sparse::Csr a = sparse::read_matrix_market_file(path);
  if (!a.is_square()) {
    std::fprintf(stderr, "error: the decomposition models require a square matrix "
                         "(got %dx%d)\n", a.num_rows(), a.num_cols());
    return 1;
  }
  std::printf("%s: %s\n", path.c_str(), sparse::to_string(sparse::compute_stats(a)).c_str());

  part::PartitionConfig cfg;
  cfg.seed = seed;
  if (const auto eps = args.flag("eps")) cfg.epsilon = std::stod(*eps);
  cfg.cancel = cancel::CancelToken::with_deadline_ms(resolve_timeout_ms(args));
  if (args.has_switch("no-degrade")) cfg.degradeOnDeadline = false;
  const std::string methodName = args.flag("method").value_or("multilevel");
  if (!part::parse_method(methodName, cfg.method)) {
    std::fprintf(stderr, "error: unknown method '%s'\n", methodName.c_str());
    return 2;
  }
  if (cfg.method != part::PartitionMethod::kMultilevel && modelName != "finegrain") {
    std::fprintf(stderr, "error: --method %s requires --model finegrain\n",
                 methodName.c_str());
    return 2;
  }

  rep.info("matrix", path);
  rep.info("model", modelName);
  rep.info("method", methodName);
  rep.info("k", static_cast<long long>(k));

  perf::CounterScope perfScope("partition");
  model::ModelRun mrun;
  if (modelName == "finegrain") {
    mrun = model::run_finegrain(a, k, cfg);
  } else if (modelName == "hyper1d") {
    mrun = model::run_hypergraph1d(a, k, cfg);
  } else if (modelName == "graph") {
    mrun = model::run_graph_model(a, k, cfg);
  } else if (modelName == "checkerboard") {
    mrun.decomp = model::checkerboard_decompose_k(a, k);
  } else {
    std::fprintf(stderr, "error: unknown model '%s'\n", modelName.c_str());
    return 2;
  }

  const comm::CommStats s = comm::analyze(a, mrun.decomp);
  const model::LoadStats loads = model::compute_loads(a, mrun.decomp);
  rep.set_proc_comm({s.sendWords.begin(), s.sendWords.end()},
                    {s.recvWords.begin(), s.recvWords.end()});
  rep.expect_volume("spmv", s.expandWords, s.foldWords,
                    static_cast<long long>(s.expandMessages) + s.foldMessages);
  std::printf("model=%s method=%s K=%d\n", modelName.c_str(), methodName.c_str(),
              static_cast<int>(k));
  std::printf("  partition time      : %.3f s\n", mrun.partitionSeconds);
  std::printf("  total volume        : %lld words (%.3f scaled by M)\n",
              static_cast<long long>(s.totalWords), s.scaledTotal(a.num_rows()));
  std::printf("    expand / fold     : %lld / %lld words\n",
              static_cast<long long>(s.expandWords), static_cast<long long>(s.foldWords));
  std::printf("  max per-proc volume : %lld words (%.3f scaled)\n",
              static_cast<long long>(s.maxProcWords), s.scaledMax(a.num_rows()));
  std::printf("  avg msgs / proc     : %.2f (max %d)\n", s.avgMessagesPerProc,
              static_cast<int>(s.maxMessagesPerProc));
  std::printf("  load imbalance      : %.2f%%\n", loads.percentImbalance);
  if (mrun.numDegraded > 0)
    std::printf("  deadline degradation: %d subproblem(s) demoted\n",
                static_cast<int>(mrun.numDegraded));

  if (const auto out = args.flag("out")) {
    model::write_decomposition_file(*out, mrun.decomp);
    std::printf("owner maps written to %s (readable by fghp_tool simulate)\n",
                out->c_str());
  }
  return 0;
}

void print_warnings() {
  for (const auto& w : fghp::drain_warnings())
    std::fprintf(stderr, "warning: %s\n", w.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: partition_mtx <matrix.mtx> [--model finegrain|hyper1d|graph|"
                 "checkerboard] [--k 16] [--eps 0.03] [--seed 1] [--out owners.txt]\n"
                 "       [--method multilevel|geometric|geometric-fm|streaming]\n"
                 "       [--timeout-ms MS] [--no-degrade]\n"
                 "       [--trace-out trace.json] [--metrics-out metrics.json|-]\n"
                 "       [--report-out report.json|-] [--perf]\n");
    return 2;
  }
  fghp::report::Observability obs(args, "partition_mtx", "partition");
  fghp::report::Builder& rep = obs.report();

  int rc;
  try {
    rc = run(args, rep);
  } catch (const std::exception& e) {
    print_warnings();
    std::fprintf(stderr, "error: %s\n", e.what());
    rep.set_error(e.what());
    obs.finish();  // typed error wins
    return fghp::exit_code(e);
  }
  print_warnings();
  const int obsRc = obs.finish();
  return rc == 0 && obsRc != 0 ? obsRc : rc;
}
