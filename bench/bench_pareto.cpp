// Partitioner Pareto front: wall-time vs lambda-1 cutsize for every
// fine-grain partitioning method (DESIGN.md §15) across the full suite.
//
// For each (matrix, K, method) the fine-grain model is decomposed once and
// the partition wall-time, connectivity cutsize, imbalance, and recovery /
// degradation counters are reported. The committed artifact BENCH_pareto.json
// is regenerated from this bench; README's "choosing a partitioner" table
// cites it.
//
// Two extra sections:
//   * headline — the acceptance datapoint: on the largest suite matrix at
//     K=16, geometric speedup over multilevel and the cut ratio geometric /
//     multilevel (the fast path trades cut quality for time; the headline
//     quantifies the trade where it matters most).
//   * spgemm_scale — the RB engine at scale on the second workload: the
//     fine-grain SpGEMM hypergraph of C = A*A for a ~1k-row operand (40k+
//     task vertices), multilevel vs geometric. Geometric embeds task
//     s = (a_ik, b_kj) at the C-entry coordinate (cRow[taskC[s]],
//     cCol[taskC[s]]) — same vertex ids as the hypergraph — and its cut is
//     measured on the REAL SpGEMM hypergraph, not the point proxy.
//
// The bench exits 1 if any run reports a non-finite or non-positive time or
// a negative cutsize (a zero-filled row must fail, not look plausible).
// Knobs: FGHP_SCALE, FGHP_MATRICES, FGHP_K (default here: 4,16,64),
// FGHP_SPGEMM_SCALE (operand scale for the spgemm section, default 0.15).
// Flags: --json <path>, --skip-spgemm.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hypergraph/metrics.hpp"
#include "partition/geo/geometric.hpp"
#include "partition/hg/partitioner.hpp"
#include "spgemm/finegrain.hpp"
#include "spgemm/tasks.hpp"

namespace {

using namespace fghp;

const std::vector<part::PartitionMethod> kMethods = {
    part::PartitionMethod::kMultilevel,
    part::PartitionMethod::kGeometric,
    part::PartitionMethod::kGeometricFm,
    part::PartitionMethod::kStreaming,
};

struct ParetoPoint {
  weight_t cutsize = -1;
  double seconds = 0.0;
  double imbalancePct = 0.0;
  int recoveries = 0;
  int degraded = 0;
};

bool sane(const ParetoPoint& p) {
  return p.cutsize >= 0 && std::isfinite(p.seconds) && p.seconds > 0.0 &&
         std::isfinite(p.imbalancePct);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fghp;
  const ArgParser args(argc, argv);
  report::Observability obs(args, "bench_pareto", "bench");
  bench::BenchEnv env = bench::load_env();
  if (!env_str("FGHP_K")) env.kValues = {4, 16, 64};
  const double spgemmScale = [&] {
    if (const auto s = env_str("FGHP_SPGEMM_SCALE")) return std::stod(*s);
    return 0.15;
  }();

  bench::JsonWriter json;
  json.scalar("bench", std::string("pareto"));
  json.scalar("scale", env.scale);

  std::printf(
      "Partitioner Pareto front: wall-time vs lambda-1 cutsize, fine-grain model\n"
      "(scale=%.2f; methods: multilevel, geometric, geometric-fm, streaming)\n\n",
      env.scale);

  Table table({"matrix", "nnz", "K", "method", "cutsize", "time[s]", "imb%", "rec", "deg"});
  bool ok = true;

  // Pareto sweep over the suite. The headline compares geometric against
  // multilevel on the largest (by nnz) matrix that ran at K=16.
  std::string largestName;
  idx_t largestNnz = -1;
  ParetoPoint headlineMl, headlineGeo;
  for (const auto& name : env.matrices) {
    const sparse::Csr a = sparse::make_matrix(name, 1, env.scale);
    const bool isLargest = a.nnz() > largestNnz;
    if (isLargest) {
      largestNnz = a.nnz();
      largestName = name;
    }
    for (idx_t k : env.kValues) {
      for (part::PartitionMethod method : kMethods) {
        part::PartitionConfig cfg;
        cfg.seed = 1;
        cfg.method = method;
        const model::ModelRun run = model::run_finegrain(a, k, cfg);
        ParetoPoint p;
        p.cutsize = run.objective;
        p.seconds = run.partitionSeconds;
        p.imbalancePct = 100.0 * run.imbalance;
        p.recoveries = run.numRecoveries;
        p.degraded = run.numDegraded;
        if (!sane(p)) {
          std::fprintf(stderr, "%s K=%d %s: insane datapoint (cut %lld, %.6f s)\n",
                       name.c_str(), static_cast<int>(k), part::method_name(method),
                       static_cast<long long>(p.cutsize), p.seconds);
          ok = false;
        }
        if (k == 16 && isLargest) {
          if (method == part::PartitionMethod::kMultilevel) headlineMl = p;
          if (method == part::PartitionMethod::kGeometric) headlineGeo = p;
        }
        table.add_row({name, Table::num(static_cast<long long>(a.nnz())),
                       Table::num(static_cast<long long>(k)), part::method_name(method),
                       Table::num(static_cast<long long>(p.cutsize)),
                       Table::num(p.seconds, 4), Table::num(p.imbalancePct, 2),
                       Table::num(static_cast<long long>(p.recoveries)),
                       Table::num(static_cast<long long>(p.degraded))});
        json.add("runs")
            .field("matrix", name)
            .field("n", a.num_rows())
            .field("nnz", a.nnz())
            .field("k", k)
            .field("method", std::string(part::method_name(method)))
            .field("cutsize", static_cast<long long>(p.cutsize))
            .field("seconds", p.seconds)
            .field("imbalance_pct", p.imbalancePct)
            .field("recoveries", static_cast<long long>(p.recoveries))
            .field("degraded", static_cast<long long>(p.degraded));
      }
    }
  }
  table.print();

  const bool haveHeadline = headlineMl.cutsize >= 0 && headlineGeo.cutsize >= 0;
  if (haveHeadline) {
    const double speedup = headlineMl.seconds / headlineGeo.seconds;
    const double cutRatio = headlineGeo.cutsize > 0 && headlineMl.cutsize > 0
                                ? static_cast<double>(headlineGeo.cutsize) /
                                      static_cast<double>(headlineMl.cutsize)
                                : 1.0;
    std::printf("\nheadline (%s, K=16): geometric %.1fx faster than multilevel, "
                "cut ratio %.2fx\n", largestName.c_str(), speedup, cutRatio);
    json.scalar("headline_matrix", largestName);
    json.scalar("headline_speedup", speedup);
    json.scalar("headline_cut_ratio", cutRatio);
  }

  // SpGEMM scale section: the RB engine on a 40k+-vertex second-workload
  // hypergraph. Both methods are measured on the same hypergraph; geometric
  // partitions the C-coordinate point cloud and lifts the assignment (task
  // ids are shared), so its cutsize below is the true lambda-1 on m.h.
  if (!args.has_switch("skip-spgemm")) {
    const std::string spName = "nl";
    const sparse::Csr a = sparse::make_matrix(spName, 1, spgemmScale);
    const spgemm::TaskGraph t = spgemm::build_tasks(a, a);
    const spgemm::SpgemmModel m = spgemm::build_spgemm_finegrain(t);
    const idx_t k = 16;
    std::printf("\nSpGEMM scale (C = A*A, %s scale %.2f): %d rows -> %lld task vertices\n",
                spName.c_str(), spgemmScale, static_cast<int>(a.num_rows()),
                static_cast<long long>(t.num_tasks()));

    part::PartitionConfig cfg;
    cfg.seed = 1;
    const part::HgResult ml = part::partition_hypergraph(m.h, k, cfg);
    ParetoPoint pMl;
    pMl.cutsize = ml.cutsize;
    pMl.seconds = ml.seconds;
    pMl.imbalancePct = 100.0 * ml.imbalance;

    part::geo::GeoPoints pts;
    pts.numRows = t.aRows;
    pts.numCols = t.bCols;
    pts.totalWeight = t.num_tasks();
    for (idx_t s = 0; s < t.num_tasks(); ++s) {
      const idx_t g = t.taskC[static_cast<std::size_t>(s)];
      pts.row.push_back(t.cRow[static_cast<std::size_t>(g)]);
      pts.col.push_back(t.cCol[static_cast<std::size_t>(g)]);
      pts.wgt.push_back(1);
    }
    const part::geo::GeoResult geo = part::geo::partition_points_geometric(pts, k, cfg);
    hg::Partition lifted(m.h, k, std::vector<idx_t>(geo.partition.assignment()));
    ParetoPoint pGeo;
    pGeo.cutsize = hg::cutsize(m.h, lifted, hg::CutMetric::kConnectivity);
    pGeo.seconds = geo.seconds;
    pGeo.imbalancePct = 100.0 * hg::imbalance(m.h, lifted);

    for (const auto& [method, p] : {std::pair<const char*, ParetoPoint>{"multilevel", pMl},
                                    {"geometric", pGeo}}) {
      if (!sane(p)) {
        std::fprintf(stderr, "spgemm %s: insane datapoint\n", method);
        ok = false;
      }
      std::printf("  %-11s cut %-10lld time %.4f s  imb %.2f%%\n", method,
                  static_cast<long long>(p.cutsize), p.seconds, p.imbalancePct);
      json.add("spgemm_scale")
          .field("matrix", spName)
          .field("rows", a.num_rows())
          .field("tasks", t.num_tasks())
          .field("k", k)
          .field("method", std::string(method))
          .field("cutsize", static_cast<long long>(p.cutsize))
          .field("seconds", p.seconds)
          .field("imbalance_pct", p.imbalancePct);
    }
  }

  if (const auto out = args.flag("json")) {
    if (!json.write(*out)) return 1;
    std::printf("\nJSON written to %s\n", out->c_str());
  }
  if (obs.finish() != 0) ok = false;
  return ok ? 0 : 1;
}
