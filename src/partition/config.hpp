// Shared configuration for the multilevel partitioners (hypergraph and
// graph). Defaults reproduce the paper's setup: eps = 0.03 (the "< 3%
// imbalance" of §4), connectivity-minus-one objective, PaToH-style
// agglomerative coarsening.
#pragma once

#include <cstdint>
#include <string>

#include "hypergraph/metrics.hpp"
#include "util/cancel.hpp"
#include "util/types.hpp"

namespace fghp::part {

enum class Coarsening {
  kHeavyConnectivity,  ///< HCM: pairwise matching by shared-net cost
  kAgglomerative,      ///< HCC: absorption clustering (PaToH default)
  kRandomMatching,     ///< ablation baseline
  kNone,               ///< ablation baseline: flat (no multilevel)
};

enum class InitialAlgo {
  kGreedyGrowing,  ///< GHG: grow one side by best-gain moves from a seed
  kRandom,         ///< random balanced assignment (+ FM)
  kMixed,          ///< alternate both across the initial runs (default)
};

enum class ValidateLevel {
  kNone,    ///< trust the caller; only debug asserts
  kBasic,   ///< the always-on preconditions (default)
  kStrict,  ///< also deep-validate the hypergraph and the partition between
            ///< pipeline phases (InvariantError on any inconsistency)
};

/// Which fine-grain partitioning engine runs (see DESIGN.md §15). Only the
/// fine-grain model dispatches on this; every other model is multilevel-only.
enum class PartitionMethod {
  kMultilevel,   ///< the paper's PaToH-style multilevel stack (default)
  kGeometric,    ///< recursive weighted-median splits on (row, col) points
  kGeometricFm,  ///< geometric initial partition + one K-way FM refine sweep
  kStreaming,    ///< one-pass greedy assignment with bounded part summaries
};

inline const char* method_name(PartitionMethod m) {
  switch (m) {
    case PartitionMethod::kMultilevel: return "multilevel";
    case PartitionMethod::kGeometric: return "geometric";
    case PartitionMethod::kGeometricFm: return "geometric-fm";
    case PartitionMethod::kStreaming: return "streaming";
  }
  return "?";
}

/// Parses a --method string; returns false on an unknown name.
inline bool parse_method(const std::string& name, PartitionMethod& out) {
  if (name == "multilevel") out = PartitionMethod::kMultilevel;
  else if (name == "geometric") out = PartitionMethod::kGeometric;
  else if (name == "geometric-fm") out = PartitionMethod::kGeometricFm;
  else if (name == "streaming") out = PartitionMethod::kStreaming;
  else return false;
  return true;
}

struct PartitionConfig {
  /// Maximum allowed imbalance ratio eps of eq. (1).
  double epsilon = 0.03;

  /// Master seed; every run is deterministic in (inputs, seed).
  std::uint64_t seed = 1;

  /// Objective: eq. (3) connectivity-1 (the paper) or eq. (2) cut-net.
  hg::CutMetric metric = hg::CutMetric::kConnectivity;

  /// Which fine-grain engine runs: the multilevel stack (paper quality), the
  /// geometric fast path, geometric + one FM sweep, or one-pass streaming.
  /// Quality-vs-time tradeoffs are measured by bench/bench_pareto.
  PartitionMethod method = PartitionMethod::kMultilevel;

  /// HCM measures best on fine-grain hypergraphs (ablation A1); the
  /// agglomerative policy trades a little quality for fewer levels.
  Coarsening coarsening = Coarsening::kHeavyConnectivity;

  /// Coarsening stops when this many vertices remain...
  idx_t coarsenTo = 100;
  /// ...or a level shrinks by less than this factor.
  double minReductionFactor = 0.95;
  idx_t maxCoarsenLevels = 64;

  /// Nets larger than this are ignored while scoring mates (0 = auto:
  /// max(64, |V|/20)). Huge nets are almost always cut anyway and scoring
  /// through them costs O(|net|^2) per level.
  idx_t maxNetSizeForMatching = 0;

  /// Number of initial-partitioning attempts at the coarsest level.
  idx_t numInitialRuns = 8;
  InitialAlgo initial = InitialAlgo::kMixed;

  /// FM refinement: maximum passes per level and the early-exit window
  /// (abort a pass after this many consecutive moves without a new best,
  /// scaled by vertex count but never below minFmMoves).
  idx_t maxFmPasses = 3;
  double fmEarlyExitFraction = 0.25;
  idx_t minFmMoves = 128;

  /// Greedy direct K-way polish after recursive bisection (extension over
  /// the paper's PaToH pipeline; ablation A2 measures its effect).
  bool kwayRefine = true;
  idx_t kwayRefinePasses = 2;

  /// Iterated V-cycles after recursive bisection: restricted coarsening +
  /// multilevel K-way refinement (see partition/hg/vcycle.hpp). Each cycle
  /// stops early when it yields no improvement.
  idx_t vcycles = 2;

  /// Independent full restarts of the hypergraph partitioner (different
  /// derived seeds); the best cutsize wins. 1 = single run (default).
  idx_t numRestarts = 1;

  /// Threads for task-parallel recursive bisection. 0 = auto (FGHP_THREADS
  /// if set, else hardware concurrency); 1 = the serial code path. The
  /// partition is identical at every thread count: each recursion branch's
  /// Rng stream is derived before the branches fork.
  idx_t numThreads = 0;

  /// Sub-problems with fewer vertices than this recurse serially — forking
  /// a task costs more than partitioning a tiny side.
  idx_t minParallelVertices = 2048;

  /// Attempts per bisection node before degrading to the deterministic
  /// greedy split: attempt 0 is the normal run; each retry reseeds the Rng
  /// stream and relaxes the per-side caps. Every retry and fallback is
  /// recorded in the warning log and counted in HgResult::numRecoveries.
  idx_t maxBisectAttempts = 3;

  /// Cooperative cancellation / deadline for this run (util/cancel.hpp).
  /// Default-constructed = inactive: no deadline, near-zero check-point cost,
  /// and the partition stays bit-identical to a build without this layer.
  cancel::CancelToken cancel;

  /// When the deadline budget runs low (or out), degrade remaining
  /// recursive-bisection subtrees — full multilevel -> coarsen-light ->
  /// deterministic greedy split — instead of throwing DeadlineExceededError,
  /// so an expiring request still returns a valid, balance-feasible
  /// partition. Degraded nodes are counted in HgResult/GpResult::numDegraded.
  /// A manual cancel() always throws regardless of this flag.
  bool degradeOnDeadline = true;

  /// How much consistency checking runs between pipeline phases.
  ValidateLevel validateLevel = ValidateLevel::kBasic;

  /// Fault-injection spec installed for this run (see util/fault.hpp);
  /// empty = leave the process-global spec (FGHP_FAULT_SPEC) in place.
  std::string faultSpec;
};

}  // namespace fghp::part
