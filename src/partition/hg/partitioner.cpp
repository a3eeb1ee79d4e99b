#include "partition/hg/partitioner.hpp"

#include <optional>

#include "hypergraph/validate.hpp"
#include "partition/hg/kway_refine.hpp"
#include "partition/hg/recursive.hpp"
#include "partition/hg/vcycle.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::part {

namespace {

/// True when the run's deadline has expired and the config asks for
/// degradation: quality-only phases should be skipped, not attempted.
bool budget_gone(const PartitionConfig& cfg) {
  return cfg.degradeOnDeadline &&
         cancel::poll(cfg.cancel) == cancel::Status::kDeadlineExpired;
}

/// One full pipeline run: RB, balance repair, K-way polish, V-cycles.
/// Adds any bisection recoveries taken into `recoveries` and deadline
/// demotions into `degraded`.
hg::Partition run_pipeline(const hg::Hypergraph& h, idx_t K, const PartitionConfig& cfg,
                           Rng& rng, const std::vector<idx_t>& fixedPart,
                           idx_t& recoveries, idx_t& degraded) {
  const bool strict = cfg.validateLevel == ValidateLevel::kStrict;
  hgrb::RecursiveResult rb = hgrb::partition_recursive(h, K, cfg, rng, fixedPart);
  recoveries += rb.numRecoveries;
  degraded += rb.numDegraded;
  if (strict) hg::validate_partition_or_throw(h, rb.partition, "recursive-bisection");
  if (K > 1 && !hg::is_balanced(h, rb.partition, cfg.epsilon)) {
    // Integer rounding of per-level tolerances can compound on small
    // sub-problems; repair before (or instead of) the quality polish. This
    // runs even on an expired deadline: balance feasibility is part of the
    // degradation contract, only quality polish is negotiable.
    hgk::kway_rebalance(h, rb.partition, cfg.epsilon, rng, fixedPart);
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "rebalance");
  }
  if (cfg.kwayRefine && K > 2 && cfg.metric == hg::CutMetric::kConnectivity &&
      !budget_gone(cfg)) {
    hgk::kway_refine(h, rb.partition, cfg, rng, fixedPart);
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "kway-refine");
  }
  // V-cycles move whole clusters, which could smuggle a fixed vertex across
  // parts; run them only on fully free instances.
  if (K > 1 && cfg.metric == hg::CutMetric::kConnectivity && fixedPart.empty() &&
      !budget_gone(cfg)) {
    for (idx_t cycle = 0; cycle < cfg.vcycles; ++cycle) {
      if (cancel::check_point(cfg.cancel, "vcycle", nullptr, cycle + 1,
                              /*deadlineThrows=*/!cfg.degradeOnDeadline) !=
          cancel::Status::kRun)
        break;
      if (hgv::vcycle_refine(h, rb.partition, cfg, rng) == 0) break;
    }
    if (strict) hg::validate_partition_or_throw(h, rb.partition, "vcycle");
  }
  return std::move(rb.partition);
}

}  // namespace

HgResult partition_hypergraph(const hg::Hypergraph& h, idx_t K, const PartitionConfig& cfg,
                              const std::vector<idx_t>& fixedPart) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  FGHP_REQUIRE(cfg.numRestarts >= 1, "need at least one restart");
  WallTimer timer;

  // Scope the configured fault spec to this call; an empty spec leaves any
  // process-global (FGHP_FAULT_SPEC) installation untouched.
  std::optional<fault::ScopedSpec> faultScope;
  if (!cfg.faultSpec.empty()) faultScope.emplace(cfg.faultSpec);
  trace::TraceScope span("partition", "hg.partition", "k", K, "verts",
                         h.num_vertices());

  if (cfg.validateLevel == ValidateLevel::kStrict) hg::validate_or_throw(h);

  // Phase-boundary check-point before any work: a run that arrives already
  // cancelled (or expired, with degradation off) fails immediately.
  cancel::check_point(cfg.cancel, "hg.partition", nullptr, 1,
                      /*deadlineThrows=*/!cfg.degradeOnDeadline);

  Rng rng(cfg.seed);
  idx_t recoveries = 0;
  idx_t degraded = 0;

  hg::Partition best = run_pipeline(h, K, cfg, rng, fixedPart, recoveries, degraded);
  weight_t bestCut = hg::cutsize(h, best, cfg.metric);
  for (idx_t restart = 1; restart < cfg.numRestarts; ++restart) {
    // Restarts are pure quality search: stop spending when the budget is
    // gone (the Rng spawn still happens, keeping surviving restarts'
    // streams identical to an un-deadlined run).
    Rng restartRng = rng.spawn();
    if (budget_gone(cfg)) break;
    hg::Partition candidate =
        run_pipeline(h, K, cfg, restartRng, fixedPart, recoveries, degraded);
    const weight_t cut = hg::cutsize(h, candidate, cfg.metric);
    // Prefer a feasible candidate, then the lower cut.
    const bool candFeasible = hg::is_balanced(h, candidate, cfg.epsilon);
    const bool bestFeasible = hg::is_balanced(h, best, cfg.epsilon);
    if ((candFeasible && !bestFeasible) ||
        (candFeasible == bestFeasible && cut < bestCut)) {
      best = std::move(candidate);
      bestCut = cut;
    }
  }

  static metrics::Counter& runs = metrics::counter("partition.hg.runs");
  static metrics::Counter& recovered = metrics::counter("partition.recoveries");
  runs.add();
  recovered.add(recoveries);

  HgResult out;
  out.seconds = timer.seconds();
  out.cutsize = bestCut;
  out.numCutNets = hg::num_cut_nets(h, best);
  out.imbalance = hg::imbalance(h, best);
  out.numRecoveries = recoveries;
  out.numDegraded = degraded;
  out.partition = std::move(best);
  return out;
}

}  // namespace fghp::part
