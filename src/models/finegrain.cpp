#include "models/finegrain.hpp"

#include "hypergraph/metrics.hpp"
#include "hypergraph/validate.hpp"
#include "partition/geo/geometric.hpp"
#include "partition/geo/streaming.hpp"
#include "partition/hg/kway_refine.hpp"
#include "partition/hg/partitioner.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::model {

FineGrainModel build_finegrain(const sparse::Csr& a) {
  FGHP_REQUIRE(a.is_square(), "the fine-grain model requires a square matrix");
  const idx_t n = a.num_rows();
  const idx_t z = a.nnz();
  trace::TraceScope span("model", "build.finegrain", "n", n, "nnz", z);

  FineGrainModel m;
  m.numRows = n;
  m.numRealVertices = z;
  m.diagVertex.assign(static_cast<std::size_t>(n), kInvalidIdx);

  // Entry e of the CSR is vertex e. Find the diagonal vertices and allocate
  // dummies for missing diagonals.
  {
    idx_t e = 0;
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t j : a.row_cols(i)) {
        if (j == i) m.diagVertex[static_cast<std::size_t>(i)] = e;
        ++e;
      }
    }
  }
  std::vector<idx_t> dummyOf;  // dummy slot -> diagonal index
  for (idx_t i = 0; i < n; ++i)
    if (m.diagVertex[static_cast<std::size_t>(i)] == kInvalidIdx) dummyOf.push_back(i);
  // Every vertex pins its row net and its column net, so the pin count (an
  // idx_t prefix below) is twice the vertex count; refuse both before they wrap.
  const idx_t numVerts =
      narrow_idx(static_cast<std::int64_t>(z) + static_cast<std::int64_t>(dummyOf.size()),
                 "fine-grain vertex count (nonzeros plus dummy diagonals)");
  narrow_idx(2 * static_cast<std::int64_t>(numVerts), "fine-grain pin count");
  for (std::size_t d = 0; d < dummyOf.size(); ++d)
    m.diagVertex[static_cast<std::size_t>(dummyOf[d])] = z + static_cast<idx_t>(d);

  std::vector<weight_t> vwgt(static_cast<std::size_t>(numVerts), 1);
  for (std::size_t d = 0; d < dummyOf.size(); ++d)
    vwgt[static_cast<std::size_t>(z) + d] = 0;  // dummies do not affect balance

  // Row nets first (net i = m_i), then column nets (net n + j = n_j).
  // Row net pins are the row's entries in CSR order; column net pins are
  // collected with a counting pass. Dummy v_jj joins both m_j and n_j.
  std::vector<idx_t> xpins(static_cast<std::size_t>(2 * n) + 1, 0);
  std::vector<idx_t> colCount(static_cast<std::size_t>(n), 0);
  for (idx_t j : a.col_ind()) ++colCount[static_cast<std::size_t>(j)];

  for (idx_t i = 0; i < n; ++i) {
    idx_t rowPins = a.row_size(i);
    idx_t colPins = colCount[static_cast<std::size_t>(i)];
    if (m.diagVertex[static_cast<std::size_t>(i)] >= z) {  // dummy present
      ++rowPins;
      ++colPins;
    }
    xpins[static_cast<std::size_t>(i) + 1] = rowPins;
    xpins[static_cast<std::size_t>(n + i) + 1] = colPins;
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(2 * n); ++k) xpins[k + 1] += xpins[k];

  std::vector<idx_t> pins(static_cast<std::size_t>(xpins.back()));
  std::vector<idx_t> cursor(xpins.begin(), xpins.end() - 1);
  {
    idx_t e = 0;
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t j : a.row_cols(i)) {
        pins[static_cast<std::size_t>(cursor[static_cast<std::size_t>(i)]++)] = e;       // m_i
        pins[static_cast<std::size_t>(cursor[static_cast<std::size_t>(n + j)]++)] = e;   // n_j
        ++e;
      }
    }
  }
  for (std::size_t d = 0; d < dummyOf.size(); ++d) {
    const idx_t j = dummyOf[d];
    const idx_t dv = z + static_cast<idx_t>(d);
    pins[static_cast<std::size_t>(cursor[static_cast<std::size_t>(j)]++)] = dv;      // m_j
    pins[static_cast<std::size_t>(cursor[static_cast<std::size_t>(n + j)]++)] = dv;  // n_j
  }

  std::vector<weight_t> costs(static_cast<std::size_t>(2 * n), 1);
  m.h = hg::Hypergraph(numVerts, std::move(xpins), std::move(pins), std::move(vwgt),
                       std::move(costs));
  return m;
}

Decomposition decode_finegrain(const sparse::Csr& a, const FineGrainModel& m,
                               const hg::Partition& p) {
  FGHP_REQUIRE(p.complete(), "decode requires a complete partition");
  FGHP_REQUIRE(p.num_vertices() == m.h.num_vertices(), "partition/model mismatch");

  Decomposition d;
  d.numProcs = p.num_parts();
  d.nnzOwner.resize(static_cast<std::size_t>(a.nnz()));
  for (idx_t e = 0; e < a.nnz(); ++e) d.nnzOwner[static_cast<std::size_t>(e)] = p.part_of(e);
  d.xOwner.resize(static_cast<std::size_t>(a.num_cols()));
  d.yOwner.resize(static_cast<std::size_t>(a.num_rows()));
  for (idx_t j = 0; j < a.num_rows(); ++j) {
    const idx_t owner = p.part_of(m.diagVertex[static_cast<std::size_t>(j)]);
    d.xOwner[static_cast<std::size_t>(j)] = owner;
    d.yOwner[static_cast<std::size_t>(j)] = owner;
  }
  validate(a, d);
  return d;
}

FineGrainPoints build_finegrain_points(const sparse::Csr& a) {
  FGHP_REQUIRE(a.is_square(), "the fine-grain model requires a square matrix");
  const idx_t n = a.num_rows();
  const idx_t z = a.nnz();
  trace::TraceScope span("model", "build.finegrain_points", "n", n, "nnz", z);

  FineGrainPoints m;
  m.numRealVertices = z;
  m.diagVertex.assign(static_cast<std::size_t>(n), kInvalidIdx);

  std::vector<idx_t> row, col;
  std::vector<weight_t> wgt;
  row.reserve(static_cast<std::size_t>(z));
  col.reserve(static_cast<std::size_t>(z));
  wgt.reserve(static_cast<std::size_t>(z));
  {
    idx_t e = 0;
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t j : a.row_cols(i)) {
        if (j == i) m.diagVertex[static_cast<std::size_t>(i)] = e;
        row.push_back(i);
        col.push_back(j);
        wgt.push_back(1);
        ++e;
      }
    }
  }
  // Dummies appended in diagonal order, matching build_finegrain's ids.
  idx_t numVerts = z;
  for (idx_t i = 0; i < n; ++i) {
    if (m.diagVertex[static_cast<std::size_t>(i)] != kInvalidIdx) continue;
    m.diagVertex[static_cast<std::size_t>(i)] = numVerts++;
    row.push_back(i);
    col.push_back(i);
    wgt.push_back(0);
  }
  m.pts = part::geo::make_points(std::move(row), std::move(col), std::move(wgt), n, n);
  return m;
}

Decomposition decode_finegrain(const sparse::Csr& a, const FineGrainPoints& m,
                               const part::geo::GeoPartition& p) {
  FGHP_REQUIRE(p.complete(), "decode requires a complete partition");
  FGHP_REQUIRE(p.num_vertices() == m.pts.num_vertices(), "partition/model mismatch");

  Decomposition d;
  d.numProcs = p.num_parts();
  d.nnzOwner.resize(static_cast<std::size_t>(a.nnz()));
  for (idx_t e = 0; e < a.nnz(); ++e) d.nnzOwner[static_cast<std::size_t>(e)] = p.part_of(e);
  d.xOwner.resize(static_cast<std::size_t>(a.num_cols()));
  d.yOwner.resize(static_cast<std::size_t>(a.num_rows()));
  for (idx_t j = 0; j < a.num_rows(); ++j) {
    const idx_t owner = p.part_of(m.diagVertex[static_cast<std::size_t>(j)]);
    d.xOwner[static_cast<std::size_t>(j)] = owner;
    d.yOwner[static_cast<std::size_t>(j)] = owner;
  }
  validate(a, d);
  return d;
}

namespace {

/// The geometric-fm method: geometric initial partition, lifted onto the
/// real hypergraph for a balance repair plus ONE K-way FM sweep. The
/// hypergraph build and the sweep are partitioner internals of this method
/// (neither would exist without it), so both count in partitionSeconds.
ModelRun run_finegrain_geometric_fm(const sparse::Csr& a, const FineGrainPoints& m,
                                    idx_t K, const part::PartitionConfig& cfg) {
  WallTimer timer;
  part::geo::GeoResult g = part::geo::partition_points_geometric(m.pts, K, cfg);

  const FineGrainModel hm = build_finegrain(a);
  hg::Partition p(hm.h, K, std::vector<idx_t>(g.partition.assignment()));
  Rng rng(cfg.seed);
  if (K > 1 && !hg::is_balanced(hm.h, p, cfg.epsilon))
    part::hgk::kway_rebalance(hm.h, p, cfg.epsilon, rng);
  part::PartitionConfig oneSweep = cfg;
  oneSweep.kwayRefinePasses = 1;
  part::hgk::kway_refine(hm.h, p, oneSweep, rng);
  if (cfg.validateLevel == part::ValidateLevel::kStrict)
    hg::validate_partition_or_throw(hm.h, p, "geometric-fm");

  ModelRun run;
  run.objective = hg::cutsize(hm.h, p, hg::CutMetric::kConnectivity);
  run.imbalance = hg::imbalance(hm.h, p);
  run.numRecoveries = g.numRecoveries;
  run.numDegraded = g.numDegraded;
  run.partitionSeconds = timer.seconds();
  run.decomp = decode_finegrain(a, hm, p);
  return run;
}

}  // namespace

ModelRun run_finegrain(const sparse::Csr& a, idx_t K, const part::PartitionConfig& cfg) {
  using part::PartitionMethod;
  if (cfg.method == PartitionMethod::kMultilevel) {
    const FineGrainModel m = build_finegrain(a);
    part::HgResult r = part::partition_hypergraph(m.h, K, cfg);

    ModelRun run;
    run.partitionSeconds = r.seconds;
    run.objective = r.cutsize;
    run.imbalance = r.imbalance;
    run.numRecoveries = r.numRecoveries;
    run.numDegraded = r.numDegraded;
    run.decomp = decode_finegrain(a, m, r.partition);
    return run;
  }

  const FineGrainPoints m = build_finegrain_points(a);
  ModelRun run;
  switch (cfg.method) {
    case PartitionMethod::kGeometric: {
      part::geo::GeoResult r = part::geo::partition_points_geometric(m.pts, K, cfg);
      run.partitionSeconds = r.seconds;
      run.objective = r.cutsize;
      run.imbalance = r.imbalance;
      run.numRecoveries = r.numRecoveries;
      run.numDegraded = r.numDegraded;
      run.decomp = decode_finegrain(a, m, r.partition);
      break;
    }
    case PartitionMethod::kStreaming: {
      part::geo::StreamResult r = part::geo::partition_points_streaming(m.pts, K, cfg);
      run.partitionSeconds = r.seconds;
      run.objective = r.cutsize;
      run.imbalance = r.imbalance;
      run.numRecoveries = r.numRecoveries;
      run.numDegraded = r.numDegraded;
      run.decomp = decode_finegrain(a, m, r.partition);
      break;
    }
    case PartitionMethod::kGeometricFm:
      run = run_finegrain_geometric_fm(a, m, K, cfg);
      break;
    case PartitionMethod::kMultilevel:
      FGHP_ASSERT(false);  // handled above
      break;
  }
  return run;
}

}  // namespace fghp::model
