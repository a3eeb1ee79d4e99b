#include "partition/gp/gbisect.hpp"

#include "partition/gp/ginitial.hpp"
#include "partition/gp/grefine.hpp"
#include "partition/gp/match.hpp"
#include "partition/phase.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/trace.hpp"

namespace fghp::part::gpb {

gp::GPartition multilevel_gbisect(const gp::Graph& g, const std::array<weight_t, 2>& target,
                                  const std::array<weight_t, 2>& maxWeight,
                                  const PartitionConfig& cfg, Rng& rng) {
  FGHP_REQUIRE(target[0] + target[1] == g.total_vertex_weight(),
               "bisection targets must sum to the total vertex weight");

  // --- Coarsening phase ---------------------------------------------------
  std::vector<gpm::GCoarseLevel> levels;
  const gp::Graph* cur = &g;
  if (cfg.coarsening != Coarsening::kNone) {
    ScopedPhase phase(Phase::kCoarsen);
    for (idx_t lvl = 0; lvl < cfg.maxCoarsenLevels; ++lvl) {
      if (cur->num_vertices() <= cfg.coarsenTo) break;
      // Per-coarsen-level check-point; a deadline thrown here is converted
      // into a greedy degradation by the RB driver's recovery ladder.
      cancel::check_point(cfg.cancel, "coarsen.level", nullptr, lvl + 1);
      trace::TraceScope lvlSpan("rb", "coarsen.level", "level", lvl, "verts",
                                cur->num_vertices());
      gpm::GCoarseLevel next = gpm::coarsen_one_level(*cur, cfg, rng);
      const double reduction = static_cast<double>(next.coarse.num_vertices()) /
                               static_cast<double>(cur->num_vertices());
      if (reduction > cfg.minReductionFactor) break;  // stagnated
      levels.push_back(std::move(next));
      cur = &levels.back().coarse;
    }
  }

  // --- Initial partitioning at the coarsest level --------------------------
  gp::GPartition p = [&] {
    ScopedPhase phase(Phase::kInitial);
    return gpi::initial_gbisection(*cur, target, maxWeight, cfg, rng);
  }();

  // --- Uncoarsening + refinement -------------------------------------------
  ScopedPhase refinePhase(Phase::kRefine);
  fault::check("gfm.refine");
  gpr::GraphFM fm(cfg);
  fm.refine(*cur, p, maxWeight, rng);
  for (std::size_t i = levels.size(); i > 0; --i) {
    const gp::Graph& fine = (i >= 2) ? levels[i - 2].coarse : g;
    cancel::check_point(cfg.cancel, "refine.level", nullptr, static_cast<long>(i));
    trace::TraceScope lvlSpan("rb", "refine.level", "level",
                              static_cast<std::int64_t>(i - 1), "verts",
                              fine.num_vertices());
    const auto& map = levels[i - 1].fineToCoarse;
    std::vector<idx_t> assignment(static_cast<std::size_t>(fine.num_vertices()));
    for (idx_t v = 0; v < fine.num_vertices(); ++v)
      assignment[static_cast<std::size_t>(v)] = p.part_of(map[static_cast<std::size_t>(v)]);
    p = gp::GPartition(fine, 2, std::move(assignment));
    fm.refine(fine, p, maxWeight, rng);
  }
  return p;
}

}  // namespace fghp::part::gpb
