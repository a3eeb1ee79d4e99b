#include "sparse/reorder.hpp"

#include <algorithm>
#include <queue>

#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "util/assert.hpp"

namespace fghp::sparse {

namespace {

void check_permutation(const std::vector<idx_t>& perm, idx_t n, const char* what) {
  FGHP_REQUIRE(perm.size() == static_cast<std::size_t>(n), "permutation size mismatch");
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (idx_t p : perm) {
    FGHP_REQUIRE(p >= 0 && p < n, what);
    FGHP_REQUIRE(!seen[static_cast<std::size_t>(p)], what);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

idx_t bandwidth(const Csr& a) {
  idx_t bw = 0;
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    for (idx_t j : a.row_cols(i)) {
      bw = std::max(bw, i > j ? i - j : j - i);
    }
  }
  return bw;
}

Csr permute_symmetric(const Csr& a, const std::vector<idx_t>& newIndex) {
  FGHP_REQUIRE(a.is_square(), "permute_symmetric requires a square matrix");
  return permute(a, newIndex, newIndex);
}

Csr permute(const Csr& a, const std::vector<idx_t>& rowNew, const std::vector<idx_t>& colNew) {
  check_permutation(rowNew, a.num_rows(), "rowNew is not a permutation");
  check_permutation(colNew, a.num_cols(), "colNew is not a permutation");
  Coo coo(a.num_rows(), a.num_cols());
  for (idx_t i = 0; i < a.num_rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(rowNew[static_cast<std::size_t>(i)],
              colNew[static_cast<std::size_t>(cols[k])], vals[k]);
    }
  }
  return to_csr(std::move(coo));
}

std::vector<idx_t> rcm_ordering(const Csr& a) {
  FGHP_REQUIRE(a.is_square(), "rcm_ordering requires a square matrix");
  const idx_t n = a.num_rows();
  const Csr s = symmetrized_pattern(a);

  // Degrees exclude the diagonal.
  std::vector<idx_t> degree(static_cast<std::size_t>(n));
  for (idx_t v = 0; v < n; ++v) {
    idx_t d = 0;
    for (idx_t u : s.row_cols(v)) d += u != v ? 1 : 0;
    degree[static_cast<std::size_t>(v)] = d;
  }

  std::vector<idx_t> order;  // Cuthill-McKee order (reversed at the end)
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<idx_t> byDegree(static_cast<std::size_t>(n));
  for (idx_t v = 0; v < n; ++v) byDegree[static_cast<std::size_t>(v)] = v;
  std::sort(byDegree.begin(), byDegree.end(), [&](idx_t x, idx_t y) {
    return degree[static_cast<std::size_t>(x)] != degree[static_cast<std::size_t>(y)]
               ? degree[static_cast<std::size_t>(x)] < degree[static_cast<std::size_t>(y)]
               : x < y;
  });

  std::vector<idx_t> scratch;
  for (idx_t seedIdx : byDegree) {
    if (visited[static_cast<std::size_t>(seedIdx)]) continue;
    // BFS one component from its minimum-degree vertex.
    std::queue<idx_t> frontier;
    frontier.push(seedIdx);
    visited[static_cast<std::size_t>(seedIdx)] = 1;
    while (!frontier.empty()) {
      const idx_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      scratch.clear();
      for (idx_t u : s.row_cols(v)) {
        if (u != v && !visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = 1;
          scratch.push_back(u);
        }
      }
      std::sort(scratch.begin(), scratch.end(), [&](idx_t x, idx_t y) {
        return degree[static_cast<std::size_t>(x)] != degree[static_cast<std::size_t>(y)]
                   ? degree[static_cast<std::size_t>(x)] < degree[static_cast<std::size_t>(y)]
                   : x < y;
      });
      for (idx_t u : scratch) frontier.push(u);
    }
  }
  FGHP_ASSERT(order.size() == static_cast<std::size_t>(n));

  // Reverse and convert position list to old -> new map.
  std::vector<idx_t> newIndex(static_cast<std::size_t>(n));
  for (idx_t pos = 0; pos < n; ++pos) {
    newIndex[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] = n - 1 - pos;
  }
  return newIndex;
}

BipartiteOrdering bipartite_rcm(idx_t nRows, idx_t nCols,
                                const std::vector<idx_t>& rowPtr,
                                std::span<const idx_t> colIdx) {
  FGHP_REQUIRE(nRows >= 0 && nCols >= 0, "negative dimension");
  FGHP_REQUIRE(rowPtr.size() == static_cast<std::size_t>(nRows) + 1,
               "rowPtr size must be nRows + 1");
  FGHP_REQUIRE(!colIdx.empty() || rowPtr.back() == 0, "rowPtr/colIdx mismatch");
  FGHP_REQUIRE(static_cast<std::size_t>(rowPtr.back()) == colIdx.size(),
               "rowPtr/colIdx mismatch");

  const auto uz = [](idx_t v) { return static_cast<std::size_t>(v); };

  // Transpose adjacency (column -> rows), counting-sort style.
  std::vector<idx_t> colPtr(uz(nCols) + 1, 0);
  for (idx_t c : colIdx) {
    FGHP_REQUIRE(c >= 0 && c < nCols, "column index out of range");
    ++colPtr[uz(c) + 1];
  }
  for (idx_t c = 0; c < nCols; ++c) colPtr[uz(c) + 1] += colPtr[uz(c)];
  std::vector<idx_t> colRows(colIdx.size());
  {
    std::vector<idx_t> cursor(colPtr.begin(), colPtr.end() - 1);
    for (idx_t r = 0; r < nRows; ++r)
      for (idx_t e = rowPtr[uz(r)]; e < rowPtr[uz(r) + 1]; ++e)
        colRows[uz(cursor[uz(colIdx[uz(e)])]++)] = r;
  }

  // Joint vertex space: rows are [0, nRows), column c is vertex nRows + c.
  const idx_t n = nRows + nCols;
  const auto degree = [&](idx_t v) {
    return v < nRows ? rowPtr[uz(v) + 1] - rowPtr[uz(v)]
                     : colPtr[uz(v - nRows) + 1] - colPtr[uz(v - nRows)];
  };
  const auto byDegreeLess = [&](idx_t x, idx_t y) {
    const idx_t dx = degree(x), dy = degree(y);
    return dx != dy ? dx < dy : x < y;
  };

  std::vector<idx_t> seeds(uz(n));
  for (idx_t v = 0; v < n; ++v) seeds[uz(v)] = v;
  std::sort(seeds.begin(), seeds.end(), byDegreeLess);

  std::vector<idx_t> order;
  order.reserve(uz(n));
  std::vector<char> visited(uz(n), 0);
  std::vector<idx_t> scratch;
  std::queue<idx_t> frontier;
  for (idx_t seed : seeds) {
    if (visited[uz(seed)]) continue;
    frontier.push(seed);
    visited[uz(seed)] = 1;
    while (!frontier.empty()) {
      const idx_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      scratch.clear();
      if (v < nRows) {
        for (idx_t e = rowPtr[uz(v)]; e < rowPtr[uz(v) + 1]; ++e) {
          const idx_t u = nRows + colIdx[uz(e)];
          if (!visited[uz(u)]) {
            visited[uz(u)] = 1;
            scratch.push_back(u);
          }
        }
      } else {
        for (idx_t e = colPtr[uz(v - nRows)]; e < colPtr[uz(v - nRows) + 1]; ++e) {
          const idx_t u = colRows[uz(e)];
          if (!visited[uz(u)]) {
            visited[uz(u)] = 1;
            scratch.push_back(u);
          }
        }
      }
      std::sort(scratch.begin(), scratch.end(), byDegreeLess);
      for (idx_t u : scratch) frontier.push(u);
    }
  }
  FGHP_ASSERT(order.size() == uz(n));

  // Reverse, then rank rows and columns independently: each side's relative
  // order within the joint reversed sweep becomes its permutation.
  BipartiteOrdering out;
  out.rowNew.resize(uz(nRows));
  out.colNew.resize(uz(nCols));
  idx_t rowRank = 0, colRank = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it < nRows)
      out.rowNew[uz(*it)] = rowRank++;
    else
      out.colNew[uz(*it - nRows)] = colRank++;
  }
  return out;
}

}  // namespace fghp::sparse
