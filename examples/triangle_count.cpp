// Triangle counting through distributed SpGEMM — a non-trivial client of the
// workload-agnostic execution core.
//
// For a simple undirected graph with 0/1 adjacency matrix A (no self loops),
// the number of triangles is
//
//     #triangles = (1/6) * sum_{(i,j) : a_ij = 1} (A^2)_ij
//
// i.e. trace(A^3) / 6, computed without ever forming A^3: partition the
// fine-grain SpGEMM task graph of A*A, execute the distributed multiply
// through the generic engine, then mask the result with A's own pattern.
// A serial merge-count cross-checks the total.
#include <array>
#include <cstdio>
#include <span>
#include <vector>

#include "spgemm/finegrain.hpp"
#include "spgemm/plan.hpp"
#include "spgemm/tasks.hpp"
#include "spgemm/volume.hpp"
#include "sparse/generators.hpp"

using namespace fghp;

namespace {

/// Serial reference: triangles via sorted-adjacency intersection counting.
long long count_triangles_reference(const sparse::Csr& a) {
  long long paths = 0;  // closed wedges counted 6x (ordered, both directions)
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      // |N(i) intersect N(j)| by merging the two sorted rows.
      const auto ni = a.row_cols(i);
      const auto nj = a.row_cols(j);
      std::size_t p = 0, q = 0;
      while (p < ni.size() && q < nj.size()) {
        if (ni[p] < nj[q]) {
          ++p;
        } else if (ni[p] > nj[q]) {
          ++q;
        } else {
          ++paths;
          ++p;
          ++q;
        }
      }
    }
  }
  return paths / 6;
}

}  // namespace

int main() {
  // A random geometric graph: symmetric, no diagonal, unit values — a plain
  // undirected adjacency matrix with plenty of triangles.
  sparse::GeometricParams gp;
  gp.n = 600;
  gp.avgOffDiagDeg = 8.0;
  gp.includeDiagonal = false;
  const sparse::Csr pattern = sparse::geometric_matrix(gp, /*seed=*/7);
  // The generator draws random values; triangle counting needs the 0/1
  // adjacency, so rebuild on the same pattern with unit entries.
  const sparse::Csr a(pattern.num_rows(), pattern.num_cols(),
                      {pattern.row_ptr().begin(), pattern.row_ptr().end()},
                      {pattern.col_ind().begin(), pattern.col_ind().end()},
                      std::vector<double>(static_cast<std::size_t>(pattern.nnz()), 1.0));

  const spgemm::TaskGraph t = spgemm::build_tasks(a, a);
  std::printf("adjacency: %d vertices, %d edges; A*A has %d entries via %d tasks\n",
              a.num_rows(), a.nnz() / 2, t.num_c(), t.num_tasks());

  // Partition the fine-grain SpGEMM hypergraph for 8 processors and report
  // the exact communication volume the cutsize promises.
  part::PartitionConfig cfg;
  cfg.seed = 1;
  const spgemm::SpgemmRun run = spgemm::run_spgemm_finegrain(t, 8, cfg);
  const spgemm::SpgemmCommStats s = spgemm::analyze(t, run.decomp);
  std::printf("K=8 fine-grain partition: cutsize %lld, measured volume %lld words\n",
              static_cast<long long>(run.cutsize),
              static_cast<long long>(s.totalWords));

  // Distributed multiply, then mask (A^2)_ij with A's pattern. A is 0/1 so
  // the masked sum is exactly 6x the triangle count.
  exec::Session session(spgemm::build_schedule(t, run.decomp));
  const std::array<std::span<const double>, 2> ins{a.values(), a.values()};
  std::vector<double> c;
  session.run_mt(ins, c);

  double masked = 0.0;
  std::size_t g = 0;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      while (g < c.size() && (t.cRow[g] < i || (t.cRow[g] == i && t.cCol[g] < j))) ++g;
      if (g < c.size() && t.cRow[g] == i && t.cCol[g] == j) masked += c[g];
    }
  }
  const long long triangles = static_cast<long long>(masked + 0.5) / 6;
  const long long reference = count_triangles_reference(a);
  std::printf("triangles: %lld distributed, %lld reference\n", triangles, reference);
  return triangles == reference ? 0 : 1;
}
