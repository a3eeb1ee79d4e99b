#include "spmv/plan.hpp"

#include "util/trace.hpp"

namespace fghp::spmv {

SpmvPlan build_plan(const sparse::Csr& a, const model::Decomposition& d,
                    const cancel::CancelToken& cancel) {
  trace::TraceScope span("spmv", "plan.build", "procs", d.numProcs, "nnz", a.nnz());
  cancel::check_point(cancel, "plan.build");
  model::validate(a, d);
  const auto K = static_cast<std::size_t>(d.numProcs);

  exec::Schedule s;
  s.traceCat = "spmv";
  s.traceIteration = "spmv.iteration";
  s.metricPrefix = "spmv";
  s.numProcs = d.numProcs;
  s.inputs = {{"x", a.num_cols()}};
  s.output = {"y", a.num_rows()};
  s.lhsConst = true;
  s.rhsSpace = 0;
  s.tasks.resize(K);

  // Local nonzeros in CSR order.
  std::size_t e = 0;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k, ++e) {
      exec::ProcTasks& t = s.tasks[static_cast<std::size_t>(d.nnzOwner[e])];
      t.outId.push_back(i);
      t.rhsId.push_back(cols[k]);
      t.constVals.push_back(vals[k]);
    }
  }

  // Expand x to every processor whose nonzeros read a column; fold the
  // partial y of every row to its owner.
  s.inComm.push_back(exec::build_space_comm(d.xOwner, s.tasks, &exec::ProcTasks::rhsId,
                                            exec::Flow::kExpand));
  s.outComm = exec::build_space_comm(d.yOwner, s.tasks, &exec::ProcTasks::outId,
                                     exec::Flow::kFold);
  return s;
}

}  // namespace fghp::spmv
