#include "spgemm/plan.hpp"

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace fghp::spgemm {

namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

void check_owners(const std::vector<idx_t>& owners, std::size_t want, idx_t K,
                  const char* what) {
  FGHP_REQUIRE(owners.size() == want, "decomposition owner array has the wrong size");
  for (idx_t p : owners)
    FGHP_REQUIRE(p >= 0 && p < K, what);
}

}  // namespace

void validate(const TaskGraph& t, const SpgemmDecomposition& d) {
  FGHP_REQUIRE(d.numProcs > 0, "decomposition needs at least one processor");
  check_owners(d.taskOwner, uz(t.num_tasks()), d.numProcs, "task owner out of range");
  check_owners(d.aOwner, uz(t.numA), d.numProcs, "A entry owner out of range");
  check_owners(d.bOwner, uz(t.numB), d.numProcs, "B entry owner out of range");
  check_owners(d.cOwner, uz(t.num_c()), d.numProcs, "C entry owner out of range");
}

exec::Schedule build_schedule(const TaskGraph& t, const SpgemmDecomposition& d) {
  trace::TraceScope span("spgemm", "plan.build", "procs", d.numProcs, "tasks",
                         t.num_tasks());
  validate(t, d);
  const idx_t K = d.numProcs;

  exec::Schedule s;
  s.traceCat = "spgemm";
  s.traceIteration = "spgemm.iteration";
  s.metricPrefix = "spgemm";
  s.numProcs = K;
  s.inputs = {{"A", t.numA}, {"B", t.numB}};
  s.output = {"C", t.num_c()};
  s.lhsConst = false;
  s.lhsSpace = 0;
  s.rhsSpace = 1;
  s.tasks.resize(uz(K));

  // Per-processor task lists in the canonical task order.
  for (idx_t w = 0; w < t.num_tasks(); ++w) {
    exec::ProcTasks& pt = s.tasks[uz(d.taskOwner[uz(w)])];
    pt.outId.push_back(t.taskC[uz(w)]);
    pt.lhsId.push_back(t.taskA[uz(w)]);
    pt.rhsId.push_back(t.taskB[uz(w)]);
  }

  // Expand every A and B entry to the processors whose tasks read it; fold
  // every C partial to its owner.
  s.inComm.push_back(exec::build_space_comm(d.aOwner, s.tasks, &exec::ProcTasks::lhsId,
                                            exec::Flow::kExpand));
  s.inComm.push_back(exec::build_space_comm(d.bOwner, s.tasks, &exec::ProcTasks::rhsId,
                                            exec::Flow::kExpand));
  s.outComm = exec::build_space_comm(d.cOwner, s.tasks, &exec::ProcTasks::outId,
                                     exec::Flow::kFold);
  return s;
}

}  // namespace fghp::spgemm
