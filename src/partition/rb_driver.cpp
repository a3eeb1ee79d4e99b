// The one translation unit that owns the recursive-bisection orchestration:
// fork-join task decomposition, deterministic RNG stream derivation, the
// recovery ladder, cut telescoping, phase timers, fault arming and strict
// revalidation. Explicitly instantiated for the hypergraph and graph problem
// traits at the bottom — nothing here may depend on which family it serves
// except through the Traits hooks.
#include "partition/rb_driver.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <sstream>

#include "partition/geo/rb_traits.hpp"
#include "partition/gp/rb_traits.hpp"
#include "partition/hg/rb_traits.hpp"
#include "partition/phase.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp::part {

double per_level_epsilon(double epsilon, idx_t K) {
  if (K <= 2) return epsilon;
  const double levels = std::ceil(std::log2(static_cast<double>(K)));
  return std::pow(1.0 + epsilon, 1.0 / levels) - 1.0;
}

namespace rb {

namespace {

/// Degradation rungs for a bisection node under a deadline (cheapest last).
enum class NodeMode { kFull, kLight, kGreedy };

/// Cost-model constants for the degradation ladder, in microseconds per
/// problem-size unit (vertex + pin/edge) per recursion level. Deliberately
/// pessimistic: over-estimating cost degrades a little early and still
/// returns in time; under-estimating blows the deadline. Calibrated against
/// the bench_table1 suite on a ~3 GHz core.
constexpr double kFullUsPerUnit = 1.0;
constexpr double kLightUsPerUnit = 0.2;

template <class Traits>
struct Recurser {
  using Problem = typename Traits::Problem;
  using Part = typename Traits::Partition;

  const PartitionConfig& cfg;
  double epsLevel;
  std::vector<idx_t>& finalPart;          // indexed by original vertex id
  const std::vector<idx_t>& fixedPart;    // original vertex -> pinned part (or empty)
  ThreadPool* pool = nullptr;             // nullptr = serial recursion
  // The two subtrees of a bisection write disjoint finalPart ranges, so the
  // only shared accumulations are the cut total and the recovery count;
  // integer adds commute, keeping both exact and thread-count independent.
  std::atomic<weight_t> cutAccum{0};
  std::atomic<idx_t> recoveries{0};
  std::atomic<idx_t> degraded{0};

  /// Picks this node's rung on the degradation ladder. Without a deadline
  /// (or with degradation disabled) the answer is always kFull and nothing
  /// below this line runs, preserving bit-identical no-deadline partitions.
  /// With one, the remaining budget is compared against a cost-model
  /// estimate for the whole subtree rooted here (size x levels x per-unit
  /// cost): too little even for the light rung means the deterministic
  /// greedy split, enough for light but not full means coarsen-light.
  NodeMode pick_mode(const Problem& h, idx_t K, bool deadlineExpired) const {
    if (!cfg.degradeOnDeadline || !cfg.cancel.has_deadline()) return NodeMode::kFull;
    if (deadlineExpired) return NodeMode::kGreedy;
    const double levels = std::ceil(std::log2(static_cast<double>(std::max<idx_t>(K, 2))));
    const double units = Traits::problem_size(h) * levels;
    const double leftUs = static_cast<double>(cfg.cancel.remaining_ms()) * 1000.0;
    if (leftUs < units * kLightUsPerUnit) return NodeMode::kGreedy;
    if (leftUs < units * kFullUsPerUnit) return NodeMode::kLight;
    return NodeMode::kFull;
  }

  /// Records one ladder demotion (trace instant + metric + warning).
  void note_degraded(NodeMode mode, idx_t partOffset, idx_t K) {
    degraded.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter& counter = metrics::counter("cancel.degraded");
    counter.add();
    trace::instant("cancel", "rb.degraded", "part0", partOffset, "mode",
                   mode == NodeMode::kLight ? 1 : 2);
    std::ostringstream os;
    os << "deadline budget low: bisection subtree at part offset " << partOffset << " (k="
       << K << ") degraded to " << (mode == NodeMode::kLight ? "coarsen-light" : "greedy split");
    push_warning(os.str());
  }

  /// One bisection with bounded recovery. Attempt 0 replays the normal
  /// stream (byte-identical to the non-recovering code when it succeeds);
  /// each retry derives a fresh Rng stream from the same base and widens
  /// the per-side caps by 50% more of the original slack. An infeasible
  /// result (side over its cap) is retried like a thrown error, but the
  /// best complete partition seen is kept as the answer if no attempt is
  /// feasible — matching the old best-effort contract. Only when *every*
  /// attempt throws does the node degrade to the deterministic greedy
  /// split. All decisions are functions of (inputs, seed, fault spec), so
  /// the outcome is identical at any thread count.
  Part bisect_with_recovery(const Problem& h, const std::array<weight_t, 2>& target,
                            const std::array<weight_t, 2>& maxWeight,
                            const FixedSides& fixed, const Rng& base, idx_t partOffset,
                            const PartitionConfig& nodeCfg) {
    const idx_t attempts = std::max<idx_t>(1, nodeCfg.maxBisectAttempts);
    Part best;
    bool haveBest = false;
    bool deadlineHit = false;
    for (idx_t a = 0; a < attempts && !deadlineHit; ++a) {
      Rng attemptRng = base;
      for (idx_t i = 0; i < a; ++i) attemptRng = attemptRng.spawn();
      std::array<weight_t, 2> cap = maxWeight;
      if (a > 0) {
        for (std::size_t s = 0; s < 2; ++s) {
          const double slack = static_cast<double>(maxWeight[s] - target[s]);
          cap[s] = target[s] +
                   static_cast<weight_t>(std::ceil(slack * (1.0 + 0.5 * a))) + a;
        }
      }
      try {
        fault::check(a == 0 ? Traits::kBisectSite : Traits::kRetrySite, partOffset + 1);
        Part p = Traits::bisect(h, target, cap, nodeCfg, attemptRng, fixed);
        const bool feasible =
            p.part_weight(0) <= cap[0] && p.part_weight(1) <= cap[1];
        if (feasible) {
          if (a > 0) {
            recoveries.fetch_add(1, std::memory_order_relaxed);
            trace::instant("recovery", "rb.retry_recovered", "part0", partOffset,
                           "attempt", a + 1);
            std::ostringstream os;
            os << "bisection at part offset " << partOffset << " recovered on attempt "
               << a + 1 << " of " << attempts << " (reseeded rng, relaxed caps)";
            push_warning(os.str());
          }
          return p;
        }
        std::ostringstream os;
        os << "infeasible bisection at part offset " << partOffset << " (attempt "
           << a + 1 << " of " << attempts << "): side weights " << p.part_weight(0)
           << "/" << p.part_weight(1) << " exceed caps " << cap[0] << "/" << cap[1];
        if (!haveBest) {
          best = std::move(p);
          haveBest = true;
        }
        throw InfeasibleError(os.str());
      } catch (const CancelledError&) {
        // A manual cancel is a request to stop, not a failure to recover
        // from: retrying would defeat the whole cancellation layer.
        throw;
      } catch (const DeadlineExceededError&) {
        if (!nodeCfg.degradeOnDeadline) throw;
        // The clock ran out mid-bisection (an inner FM/coarsen check-point
        // fired): skip the remaining attempts and drop straight to the
        // ladder's floor, the deterministic greedy split.
        deadlineHit = true;
      } catch (const std::exception& e) {
        trace::instant("recovery", "rb.attempt_failed", "part0", partOffset, "attempt",
                       a + 1);
        std::ostringstream os;
        os << "bisection attempt " << a + 1 << " of " << attempts << " at part offset "
           << partOffset << " failed: " << e.what();
        push_warning(os.str());
      }
    }
    if (deadlineHit) {
      note_degraded(NodeMode::kGreedy, partOffset, 2);
      return Traits::greedy_fallback(h, target, fixed);
    }
    recoveries.fetch_add(1, std::memory_order_relaxed);
    if (haveBest) {
      // Every attempt was infeasible but at least one completed; keep the
      // first (lowest-cut FM output) and let the K-way rebalance repair it.
      trace::instant("recovery", "rb.best_effort", "part0", partOffset);
      push_warning("bisection at part offset " + std::to_string(partOffset) +
                   " stayed infeasible after all attempts; keeping best-effort result");
      return best;
    }
    trace::instant("recovery", "rb.greedy_fallback", "part0", partOffset);
    push_warning("bisection at part offset " + std::to_string(partOffset) +
                 " failed every attempt; degrading to the deterministic greedy split");
    return Traits::greedy_fallback(h, target, fixed);
  }

  void run(const Problem& h, const std::vector<idx_t>& toOrig, idx_t K,
           idx_t partOffset, Rng rng) {
    if (K == 1 || h.num_vertices() == 0) {
      for (idx_t v = 0; v < h.num_vertices(); ++v)
        finalPart[static_cast<std::size_t>(toOrig[static_cast<std::size_t>(v)])] = partOffset;
      return;
    }

    // One span per bisection node, recorded on whichever worker ran it (the
    // exported tid shows the fork-join schedule); parts [part0, part0 + k).
    trace::TraceScope span("rb", "rb.node", "part0", partOffset, "k", K);

    // Cooperative check-point at every node, before any work for the
    // subtree. The ordinal is the node's part offset + 1 — scheduling
    // independent, so an injected cancellation (cancel.rb.node:N) hits the
    // same logical node at any thread count. An expired deadline throws
    // only when degradation is off; otherwise pick_mode demotes the node.
    const cancel::Status st =
        cancel::check_point(cfg.cancel, "rb.node", "cancel.rb.node", partOffset + 1,
                            /*deadlineThrows=*/!cfg.degradeOnDeadline);
    const NodeMode mode = pick_mode(h, K, st == cancel::Status::kDeadlineExpired);

    const idx_t k0 = K / 2;
    const idx_t k1 = K - k0;
    const weight_t total = h.total_vertex_weight();
    std::array<weight_t, 2> target;
    target[0] = static_cast<weight_t>(
        std::llround(static_cast<double>(total) * static_cast<double>(k0) /
                     static_cast<double>(K)));
    target[1] = total - target[0];
    std::array<weight_t, 2> maxWeight = {
        static_cast<weight_t>(std::floor(static_cast<double>(target[0]) * (1.0 + epsLevel))),
        static_cast<weight_t>(std::floor(static_cast<double>(target[1]) * (1.0 + epsLevel)))};
    // Degenerate tiny sub-problems: never cap below the targets themselves.
    maxWeight[0] = std::max(maxWeight[0], target[0]);
    maxWeight[1] = std::max(maxWeight[1], target[1]);

    // Pin pre-assigned vertices to the side containing their final part.
    FixedSides fixed;
    if (!fixedPart.empty()) {
      fixed.assign(static_cast<std::size_t>(h.num_vertices()), -1);
      bool any = false;
      for (idx_t v = 0; v < h.num_vertices(); ++v) {
        const idx_t fp = fixedPart[static_cast<std::size_t>(toOrig[static_cast<std::size_t>(v)])];
        if (fp == kInvalidIdx) continue;
        FGHP_ASSERT(fp >= partOffset && fp < partOffset + K);
        fixed[static_cast<std::size_t>(v)] = fp - partOffset < k0 ? 0 : 1;
        any = true;
      }
      if (!any) fixed.clear();
    }

    // Child streams are derived *before* the bisection consumes rng and
    // before any fork, so every subtree sees the same stream at any thread
    // count (DESIGN.md invariant 7).
    Rng childRng0 = rng.spawn();
    Rng childRng1 = rng.spawn();
    Part bisection = [&] {
      switch (mode) {
        case NodeMode::kGreedy:
          // Ladder floor: no budget left for this subtree. The greedy split
          // is deterministic, allocation-light and always feasible enough
          // for the K-way rebalance to finish the job.
          note_degraded(mode, partOffset, K);
          return Traits::greedy_fallback(h, target, fixed);
        case NodeMode::kLight: {
          // Middle rung: a shallow multilevel pass — few coarsening levels,
          // one initial run, one FM pass, no retries.
          note_degraded(mode, partOffset, K);
          PartitionConfig light = cfg;
          light.maxCoarsenLevels = std::min<idx_t>(light.maxCoarsenLevels, 4);
          light.numInitialRuns = 1;
          light.maxFmPasses = 1;
          light.maxBisectAttempts = 1;
          return bisect_with_recovery(h, target, maxWeight, fixed, rng, partOffset, light);
        }
        case NodeMode::kFull: break;
      }
      return bisect_with_recovery(h, target, maxWeight, fixed, rng, partOffset, cfg);
    }();
    if (cfg.validateLevel == ValidateLevel::kStrict)
      Traits::validate_bisection(h, bisection);
    cutAccum.fetch_add(Traits::bisection_cut(h, bisection), std::memory_order_relaxed);

    if (pool != nullptr && h.num_vertices() >= cfg.minParallelVertices) {
      // Fork side 0; recurse into side 1 on this thread. Both sides extract
      // from (h, bisection), which outlive the join below.
      TaskGroup fork(*pool);
      fork.run([this, &h, &bisection, &toOrig, k0, partOffset, childRng0] {
        descend(h, bisection, toOrig, 0, k0, partOffset, childRng0);
      });
      descend(h, bisection, toOrig, 1, k1, partOffset + k0, childRng1);
      fork.wait();
    } else {
      descend(h, bisection, toOrig, 0, k0, partOffset, childRng0);
      descend(h, bisection, toOrig, 1, k1, partOffset + k0, childRng1);
    }
  }

  /// Extracts one bisection side, rebases it onto original vertex ids and
  /// recurses into it.
  void descend(const Problem& h, const Part& bisection, const std::vector<idx_t>& toOrig,
               idx_t side, idx_t sideK, idx_t sideOffset, Rng sideRng) {
    RbSide<Traits> ext;
    {
      ScopedPhase phase(Phase::kExtract);
      ext = Traits::extract_side(h, bisection, side, cfg);
      // Rebase the extraction onto original vertex ids.
      for (auto& v : ext.toParent) v = toOrig[static_cast<std::size_t>(v)];
    }
    run(ext.sub, ext.toParent, sideK, sideOffset, sideRng);
  }
};

}  // namespace

template <class Traits>
RbResult<Traits> partition_recursive_rb(const typename Traits::Problem& problem, idx_t K,
                                        const PartitionConfig& cfg, Rng& rng,
                                        const std::vector<idx_t>& fixedPart) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  FGHP_REQUIRE(fixedPart.empty() ||
                   fixedPart.size() == static_cast<std::size_t>(problem.num_vertices()),
               "fixedPart size mismatch");
  for (idx_t fp : fixedPart)
    FGHP_REQUIRE(fp == kInvalidIdx || (fp >= 0 && fp < K), "fixed part out of range");

  std::vector<idx_t> finalPart(static_cast<std::size_t>(problem.num_vertices()), kInvalidIdx);
  Recurser<Traits> rec{cfg, per_level_epsilon(cfg.epsilon, K), finalPart, fixedPart,
                       ThreadPool::for_request(cfg.numThreads)};

  std::vector<idx_t> identity(static_cast<std::size_t>(problem.num_vertices()));
  for (idx_t v = 0; v < problem.num_vertices(); ++v)
    identity[static_cast<std::size_t>(v)] = v;
  rec.run(problem, identity, K, 0, rng.spawn());

  RbResult<Traits> out{typename Traits::Partition(problem, K, std::move(finalPart)),
                       rec.cutAccum.load(std::memory_order_relaxed),
                       rec.recoveries.load(std::memory_order_relaxed),
                       rec.degraded.load(std::memory_order_relaxed)};
  return out;
}

// The only instantiations: the fine-grain hypergraph stack, the graph
// baseline, and the geometric fast path. New problem families add a traits
// header and a line here.
template RbResult<hgrb::HgRbTraits> partition_recursive_rb<hgrb::HgRbTraits>(
    const hg::Hypergraph&, idx_t, const PartitionConfig&, Rng&, const std::vector<idx_t>&);
template RbResult<gprb::GpRbTraits> partition_recursive_rb<gprb::GpRbTraits>(
    const gp::Graph&, idx_t, const PartitionConfig&, Rng&, const std::vector<idx_t>&);
template RbResult<georb::GeoRbTraits> partition_recursive_rb<georb::GeoRbTraits>(
    const geo::GeoPoints&, idx_t, const PartitionConfig&, Rng&, const std::vector<idx_t>&);

}  // namespace rb
}  // namespace fghp::part
