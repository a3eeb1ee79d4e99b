// Distributed SpMV plan: the exact expand/fold message schedules derived
// from a decomposition, built straight into the workload-agnostic
// exec::Schedule — one input space "x", output space "y", and one
// baked-constant task per nonzero (see exec/schedule.hpp and DESIGN.md §14).
// The plan's word/message totals are, by construction, the quantities
// comm::analyze reports — the executors assert that equivalence at runtime.
#pragma once

#include "exec/schedule.hpp"
#include "models/decomposition.hpp"
#include "sparse/csr.hpp"
#include "util/cancel.hpp"

namespace fghp::spmv {

/// An SpMV plan *is* an exec::Schedule: inputs[0] is x (numCols ids,
/// inComm[0] its ownership + expand messages), output is y (numRows ids,
/// outComm its ownership + fold messages), and processor p's local
/// nonzeros are tasks[p] (outId = row, rhsId = col, constVals = value) in
/// CSR order. Validate an untrusted plan with exec::validate_schedule.
using SpmvPlan = exec::Schedule;

/// Builds the schedules (exec::build_space_comm for x and y). Deterministic:
/// ids inside every message and the messages themselves are sorted. The
/// optional token is checked once at the phase boundary before any work (an
/// inactive default token is free). Trace/metric labels are the "spmv"
/// family.
SpmvPlan build_plan(const sparse::Csr& a, const model::Decomposition& d,
                    const cancel::CancelToken& cancel = {});

}  // namespace fghp::spmv
