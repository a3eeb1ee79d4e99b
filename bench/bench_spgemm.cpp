// SpGEMM through the workload-agnostic execution core: the second workload's
// seed perf datapoint.
//
// For each suite matrix, the fine-grain task graph of C = A * A is built,
// partitioned with the fine-grain SpGEMM hypergraph model, and executed as a
// repeated distributed multiply through the compiled generic engine (the
// iterative-kernel view: triangle counting, Markov clustering and AMG setup
// all run the same product many times). Reported per (matrix, K):
//
//   * cutsize and the independently-measured communication volume — equal by
//     the paper's theorem, asserted here (exit 1 on any mismatch),
//   * median serial and threaded per-multiply wall time over FGHP_REPS
//     samples (2 flops per scalar task -> GFLOP/s),
//   * max |C - C_ref| against the dense-accumulator reference multiply.
//
// Flags: --json <path> (the perf-trajectory artifact BENCH_spgemm.json is
// seeded from this). Knobs: FGHP_SCALE, FGHP_MATRICES, FGHP_K, FGHP_REPS.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "util/timer.hpp"

namespace {

using namespace fghp;

/// Median per-iteration milliseconds after warmup (same batching scheme as
/// bench_spmv: each sample runs enough iterations to outlast clock jitter).
template <typename Fn>
double time_iteration_ms(int reps, Fn&& iterate) {
  iterate();
  WallTimer est;
  iterate();
  const double estMs = est.millis();
  const int inner = estMs >= 0.5 ? 1 : static_cast<int>(0.5 / (estMs > 1e-6 ? estMs : 1e-6)) + 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    for (int i = 0; i < inner; ++i) iterate();
    samples.push_back(t.millis() / inner);
  }
  return bench::median(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fghp;
  const ArgParser args(argc, argv);
  report::Observability obs(args, "bench_spgemm", "bench");
  bench::BenchEnv env = bench::load_env();
  // A*A squares the nonzero count, so the default set stays on the suite's
  // small end; FGHP_MATRICES overrides.
  if (!env_str("FGHP_MATRICES")) env.matrices = {"sherman3", "ken-11"};
  const auto reps = static_cast<int>(env_long("FGHP_REPS", 20));

  bench::JsonWriter json;
  json.scalar("bench", std::string("spgemm"));
  json.scalar("scale", env.scale);
  json.scalar("reps", static_cast<long long>(reps));

  std::printf(
      "Fine-grain SpGEMM (C = A*A) through the generic execution core\n"
      "(scale=%.2f, %d repetitions; cutsize == measured volume is asserted)\n\n",
      env.scale, reps);

  Table table({"matrix", "K", "tasks", "nnz(C)", "volume[w]", "partition[s]",
               "serial[ms]", "mt[ms]", "GFLOP/s", "max err"});
  bool ok = true;
  for (const auto& name : env.matrices) {
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    const spgemm::TaskGraph t = spgemm::build_tasks(a, a);
    const std::vector<double> cRef = spgemm::reference_multiply(a, a, t);

    for (idx_t k : env.kValues) {
      part::PartitionConfig cfg;
      cfg.seed = 42;
      const spgemm::SpgemmRun run = spgemm::run_spgemm_finegrain(t, k, cfg);
      const spgemm::SpgemmCommStats s = spgemm::analyze(t, run.decomp);
      if (run.cutsize != s.totalWords) {
        std::fprintf(stderr, "%s K=%d: cutsize %lld != volume %lld\n", name.c_str(),
                     static_cast<int>(k), static_cast<long long>(run.cutsize),
                     static_cast<long long>(s.totalWords));
        ok = false;
      }

      spgemm::SpgemmSession session(t, run.decomp);
      std::vector<double> c;
      const double serialMs =
          time_iteration_ms(reps, [&] { session.run(a.values(), a.values(), c); });
      const double mtMs =
          time_iteration_ms(reps, [&] { session.run_mt(a.values(), a.values(), c); });

      double maxErr = 0.0;
      for (std::size_t g = 0; g < c.size(); ++g)
        maxErr = std::max(maxErr, std::abs(c[g] - cRef[g]));
      const double gflops =
          2.0 * static_cast<double>(t.num_tasks()) / (std::min(serialMs, mtMs) * 1e6);

      table.add_row({name, Table::num(static_cast<long long>(k)),
                     Table::num(static_cast<long long>(t.num_tasks())),
                     Table::num(static_cast<long long>(t.num_c())),
                     Table::num(static_cast<long long>(s.totalWords)),
                     Table::num(run.partitionSeconds, 3), Table::num(serialMs, 4),
                     Table::num(mtMs, 4), Table::num(gflops, 3),
                     Table::num(maxErr, 10)});
      json.add("runs")
          .field("matrix", name)
          .field("k", k)
          .field("tasks", t.num_tasks())
          .field("nnz_c", t.num_c())
          .field("cutsize", static_cast<long long>(run.cutsize))
          .field("volume_words", static_cast<long long>(s.totalWords))
          .field("partition_s", run.partitionSeconds)
          .field("serial_ms", serialMs)
          .field("mt_ms", mtMs)
          .field("gflops", gflops)
          .field("max_err", maxErr);
      if (maxErr > 1e-8 || !(gflops > 0.0)) ok = false;
    }
  }
  table.print();

  if (const auto out = args.flag("json")) {
    if (!json.write(*out)) return 1;
    std::printf("\nJSON written to %s\n", out->c_str());
  }
  if (obs.finish() != 0) ok = false;
  return ok ? 0 : 1;
}
