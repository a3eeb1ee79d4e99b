// Distributed SpGEMM schedule: the second workload of the workload-agnostic
// execution core, and the proof that the core really is workload-agnostic.
//
// A fine-grain SpGEMM decomposition assigns every scalar task c_ij += a_ik *
// b_kj to a processor and every stored entry of A, B and C to an owner. Its
// lowering is an exec::Schedule with TWO input spaces — "A" (lhs, gathered)
// and "B" (rhs, gathered) — and output space "C": superstep 1 expands both
// operands' entry values, superstep 2 runs the scalar tasks (kern::pair_dot
// groups), superstep 3 folds the C partials to their owners. Exactly the
// SpMV shape with one more input space and no baked constants; the same
// compiled engine executes both (DESIGN.md §14).
#pragma once

#include <vector>

#include "exec/compiled.hpp"
#include "spgemm/tasks.hpp"

namespace fghp::spgemm {

/// A fine-grain 2D decomposition of one SpGEMM: processor per scalar task,
/// owner per stored entry of each operand and of the result.
struct SpgemmDecomposition {
  idx_t numProcs = 0;
  std::vector<idx_t> taskOwner;  ///< [num_tasks] processor of each task
  std::vector<idx_t> aOwner;     ///< [numA] owner of each A entry value
  std::vector<idx_t> bOwner;     ///< [numB] owner of each B entry value
  std::vector<idx_t> cOwner;     ///< [num_c] owner of each C entry value
};

/// Cheap validity check of the decomposition against its task graph (sizes
/// and owner ranges); throws fghp::InvariantError on mismatch.
void validate(const TaskGraph& t, const SpgemmDecomposition& d);

/// Lowers (task graph, decomposition) to the generic execution schedule.
/// Deterministic: ids inside every message and the messages themselves are
/// sorted (the strictly-increasing contract exec::validate_schedule
/// enforces); per-processor tasks keep the canonical task order. Trace and
/// metric labels are the "spgemm" family. The word/message totals of the
/// schedule equal spgemm::analyze's by construction — tests assert it.
///
/// Execute it with exec::Session(build_schedule(t, d)): the inputs are
/// {A entry values, B entry values} in CSR order, and the output is C's
/// entry values in the task graph's C pattern order.
exec::Schedule build_schedule(const TaskGraph& t, const SpgemmDecomposition& d);

}  // namespace fghp::spgemm
