#include "spgemm/tasks.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/trace.hpp"

namespace fghp::spgemm {

namespace {
constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }
}  // namespace

TaskGraph build_tasks(const sparse::Csr& a, const sparse::Csr& b) {
  FGHP_REQUIRE(a.num_cols() == b.num_rows(),
               "SpGEMM operand shapes do not chain (cols(A) != rows(B))");
  trace::TraceScope span("spgemm", "tasks.build", "nnzA", a.nnz(), "nnzB", b.nnz());

  // Row starts of B in global entry coordinates (B entry f = CSR position).
  const std::vector<idx_t>& bPtr = b.row_ptr();

  // One task per (a_ik, b_kj) pair: sum nnz(B(k,:)) over A's entries in 64
  // bits and refuse, before allocating anything, a count the idx_t task
  // space cannot hold.
  std::int64_t numTasks = 0;
  for (idx_t k : a.col_ind()) numTasks += bPtr[uz(k) + 1] - bPtr[uz(k)];
  ErrorContext ctx;
  ctx.phase = "spgemm.tasks";
  narrow_idx(numTasks, "SpGEMM scalar task count", std::move(ctx));

  TaskGraph t;
  t.aRows = a.num_rows();
  t.inner = a.num_cols();
  t.bCols = b.num_cols();
  t.numA = a.nnz();
  t.numB = b.nnz();

  t.taskC.reserve(static_cast<std::size_t>(numTasks));
  t.taskA.reserve(static_cast<std::size_t>(numTasks));
  t.taskB.reserve(static_cast<std::size_t>(numTasks));

  // One row of C at a time: generate (j, A entry, B entry) triples in
  // k-ascending order (A rows store ascending columns), then a stable sort
  // by j groups them per C entry while preserving the k order inside each —
  // the canonical task order.
  struct Triple {
    idx_t j, ea, eb;
  };
  std::vector<Triple> row;
  idx_t ea = 0;
  for (idx_t i = 0; i < t.aRows; ++i) {
    row.clear();
    for (idx_t k : a.row_cols(i)) {
      for (idx_t f = bPtr[uz(k)]; f < bPtr[uz(k) + 1]; ++f)
        row.push_back({b.col_ind()[uz(f)], ea, f});
      ++ea;
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const Triple& x, const Triple& y) { return x.j < y.j; });
    idx_t prevJ = kInvalidIdx;
    for (const Triple& tr : row) {
      if (tr.j != prevJ) {
        t.cRow.push_back(i);
        t.cCol.push_back(tr.j);
        prevJ = tr.j;
      }
      t.taskC.push_back(t.num_c() - 1);
      t.taskA.push_back(tr.ea);
      t.taskB.push_back(tr.eb);
    }
  }
  return t;
}

std::vector<double> reference_multiply(const sparse::Csr& a, const sparse::Csr& b,
                                       const TaskGraph& t) {
  FGHP_REQUIRE(a.nnz() == t.numA && b.nnz() == t.numB && a.num_rows() == t.aRows,
               "task graph does not match the operands");
  const std::vector<idx_t>& bPtr = b.row_ptr();
  std::vector<double> acc(uz(t.bCols), 0.0);
  std::vector<double> c(uz(t.num_c()), 0.0);
  std::size_t g = 0;
  for (idx_t i = 0; i < t.aRows; ++i) {
    const auto aCols = a.row_cols(i);
    const auto aVals = a.row_vals(i);
    for (std::size_t p = 0; p < aCols.size(); ++p) {
      const idx_t k = aCols[p];
      for (idx_t f = bPtr[uz(k)]; f < bPtr[uz(k) + 1]; ++f)
        acc[uz(b.col_ind()[uz(f)])] += aVals[p] * b.values()[uz(f)];
    }
    // Drain the accumulator through the pattern (ascending columns of row i)
    // and re-zero only the touched positions.
    for (; g < uz(t.num_c()) && t.cRow[g] == i; ++g) {
      c[g] = acc[uz(t.cCol[g])];
      acc[uz(t.cCol[g])] = 0.0;
    }
  }
  FGHP_REQUIRE(g == uz(t.num_c()), "task-graph C pattern inconsistent with operands");
  return c;
}

}  // namespace fghp::spgemm
