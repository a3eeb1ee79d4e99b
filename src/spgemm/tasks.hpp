// Fine-grain task graph of sparse matrix-matrix multiply C = A * B: the
// symbolic structure that both the hypergraph model (spgemm/finegrain.hpp)
// and the execution schedule (spgemm/plan.hpp) are built from.
//
// The atomic task is one scalar multiply c_ij += a_ik * b_kj — one task per
// matching (a_ik, b_kj) pair, exactly the paper's fine-grain granularity
// transplanted from SpMV (task y_i^j = a_ij * x_j) to SpGEMM. The three
// index spaces are the *stored entries* of the operands and the result:
// A entry e (CSR order of A), B entry f (CSR order of B), C entry g (row
// -major, columns ascending — the canonical result pattern). Tasks are kept
// in the canonical deterministic order: C-entry-major, and within one C
// entry by ascending inner index k — this is the accumulation order every
// executor reproduces bit-identically.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace fghp::spgemm {

struct TaskGraph {
  idx_t aRows = 0;  ///< rows of A (= rows of C)
  idx_t inner = 0;  ///< cols of A = rows of B
  idx_t bCols = 0;  ///< cols of B (= cols of C)
  idx_t numA = 0;   ///< size of the A entry space (= nnz(A))
  idx_t numB = 0;   ///< size of the B entry space (= nnz(B))

  /// The symbolic pattern of C, row-major with ascending columns per row:
  /// C entry g sits at (cRow[g], cCol[g]).
  std::vector<idx_t> cRow, cCol;

  /// One scalar task per (a_ik, b_kj) pair, canonical order (see above):
  /// task s computes cVals[taskC[s]] += aVals[taskA[s]] * bVals[taskB[s]].
  std::vector<idx_t> taskC, taskA, taskB;

  idx_t num_c() const { return static_cast<idx_t>(cRow.size()); }
  idx_t num_tasks() const { return static_cast<idx_t>(taskC.size()); }
};

/// Symbolic multiply: enumerates the C pattern and every scalar task of
/// C = A * B. Requires a.num_cols() == b.num_rows(). Deterministic. Throws
/// fghp::InfeasibleError (phase "spgemm.tasks") before allocating when the
/// task count, Σ_k nnz(A(:,k))·nnz(B(k,:)), exceeds the idx_t range.
TaskGraph build_tasks(const sparse::Csr& a, const sparse::Csr& b);

/// Reference numeric multiply with a dense per-row accumulator, independent
/// of the task list: returns the values of C aligned to t.cRow/cCol. Used by
/// tests to cross-check the distributed executor's result.
std::vector<double> reference_multiply(const sparse::Csr& a, const sparse::Csr& b,
                                       const TaskGraph& t);

}  // namespace fghp::spgemm
