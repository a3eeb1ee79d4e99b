#include "partition/geo/streaming.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "hypergraph/metrics.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fghp::part::geo {

namespace {

/// Bits per part per dimension. 8192 bits = 1 KiB, so even K = 1024 keeps
/// all summaries inside 2 MiB while line collisions stay rare for the
/// paper-scale matrices (a collision only perturbs a score, never breaks
/// feasibility or determinism).
constexpr std::uint64_t kSummaryBits = 8192;
constexpr std::size_t kSummaryWords = kSummaryBits / 64;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fixed-size Bloom-style incidence summaries for all K parts in one
/// dimension (rows or cols). One hash per line id is enough here: the
/// summary only biases a greedy score, so the classic multi-hash/false-
/// positive tradeoff buys nothing worth the extra probes.
class Summaries {
 public:
  Summaries(idx_t K, std::uint64_t salt)
      : words_(static_cast<std::size_t>(K) * kSummaryWords, 0), salt_(salt) {}

  std::uint64_t bit_of(idx_t line) const {
    return splitmix64(salt_ ^ static_cast<std::uint64_t>(line)) & (kSummaryBits - 1);
  }
  bool test(idx_t part, std::uint64_t bit) const {
    return (words_[word(part, bit)] >> (bit & 63)) & 1u;
  }
  void set(idx_t part, std::uint64_t bit) { words_[word(part, bit)] |= 1ULL << (bit & 63); }
  std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t word(idx_t part, std::uint64_t bit) const {
    return static_cast<std::size_t>(part) * kSummaryWords + (bit >> 6);
  }
  std::vector<std::uint64_t> words_;
  std::uint64_t salt_;
};

idx_t least_loaded(const std::vector<weight_t>& load) {
  return static_cast<idx_t>(
      std::min_element(load.begin(), load.end()) - load.begin());
}

}  // namespace

StreamResult partition_points_streaming(const GeoPoints& pts, idx_t K,
                                        const PartitionConfig& cfg) {
  FGHP_REQUIRE(K >= 1, "K must be positive");
  WallTimer timer;

  std::optional<fault::ScopedSpec> faultScope;
  if (!cfg.faultSpec.empty()) faultScope.emplace(cfg.faultSpec);
  trace::TraceScope span("partition", "stream.partition", "k", K, "verts",
                         pts.num_vertices());

  cancel::check_point(cfg.cancel, "stream.partition", nullptr, 1,
                      /*deadlineThrows=*/!cfg.degradeOnDeadline);

  const idx_t z = pts.num_vertices();
  const weight_t cap = hg::balance_cap(pts.totalWeight, K, cfg.epsilon);
  Summaries rows(K, splitmix64(cfg.seed ^ 0x726f7773ULL));
  Summaries cols(K, splitmix64(cfg.seed ^ 0x636f6c73ULL));
  std::vector<weight_t> load(static_cast<std::size_t>(K), 0);
  std::vector<idx_t> part(static_cast<std::size_t>(z), kInvalidIdx);

  StreamResult out;
  out.summaryBytes = rows.bytes() + cols.bytes();

  // Scored greedy assignment of points [lo, hi). Reads and mutates the
  // summaries and loads; never touches points before lo, so a chunk whose
  // head fault fired retries cleanly.
  auto assign_scored = [&](idx_t lo, idx_t hi) {
    for (idx_t v = lo; v < hi; ++v) {
      const weight_t w = pts.wgt[static_cast<std::size_t>(v)];
      const std::uint64_t rBit = rows.bit_of(pts.row[static_cast<std::size_t>(v)]);
      const std::uint64_t cBit = cols.bit_of(pts.col[static_cast<std::size_t>(v)]);
      idx_t bestK = kInvalidIdx;
      double bestScore = 0.0;
      for (idx_t k = 0; k < K; ++k) {
        const weight_t lk = load[static_cast<std::size_t>(k)];
        if (lk + w > cap) continue;
        const double score = (rows.test(k, rBit) ? 1.0 : 0.0) +
                             (cols.test(k, cBit) ? 1.0 : 0.0) -
                             1.5 * static_cast<double>(lk) / static_cast<double>(cap);
        if (bestK == kInvalidIdx || score > bestScore) {
          bestK = k;
          bestScore = score;
        }
      }
      // Unreachable for unit weights (the lightest part always fits under
      // balance_cap); a heavyweight point that fits nowhere goes to the
      // least-loaded part as the best infeasible-input answer.
      if (bestK == kInvalidIdx) bestK = least_loaded(load);
      part[static_cast<std::size_t>(v)] = bestK;
      load[static_cast<std::size_t>(bestK)] += w;
      rows.set(bestK, rBit);
      cols.set(bestK, cBit);
    }
  };

  // Ladder floor (and post-deadline mode): pure least-loaded assignment.
  // No summary updates — the tail of a degraded stream spends nothing on
  // quality, matching the RB engine's greedy rung.
  auto assign_least_loaded = [&](idx_t lo, idx_t hi) {
    for (idx_t v = lo; v < hi; ++v) {
      const idx_t k = least_loaded(load);
      part[static_cast<std::size_t>(v)] = k;
      load[static_cast<std::size_t>(k)] += pts.wgt[static_cast<std::size_t>(v)];
    }
  };

  const idx_t attempts = std::max<idx_t>(1, cfg.maxBisectAttempts);
  bool degradedMode = false;
  for (idx_t chunk = 0, lo = 0; lo < z; ++chunk, lo += kStreamChunk) {
    const idx_t hi = std::min<idx_t>(z, lo + kStreamChunk);
    const cancel::Status st =
        cancel::check_point(cfg.cancel, "stream.assign", nullptr, chunk + 1,
                            /*deadlineThrows=*/!cfg.degradeOnDeadline);
    if (st == cancel::Status::kDeadlineExpired && !degradedMode) {
      degradedMode = true;
      out.numDegraded = 1;
      trace::instant("cancel", "stream.degraded", "chunk", chunk + 1);
      std::ostringstream os;
      os << "deadline expired at streaming chunk " << chunk + 1
         << "; remaining points assigned least-loaded";
      push_warning(os.str());
    }
    if (degradedMode) {
      assign_least_loaded(lo, hi);
      continue;
    }
    // Bounded recovery, one rung per attempt: the fault site sits at the
    // chunk head, before any assignment, so a retry replays the chunk from
    // untouched state. When every attempt faults the chunk degrades to
    // least-loaded assignment — the stream always finishes.
    bool done = false;
    for (idx_t a = 0; a < attempts && !done; ++a) {
      try {
        fault::check(a == 0 ? "stream.assign" : "stream.retry", chunk + 1);
        assign_scored(lo, hi);
        done = true;
        if (a > 0) {
          ++out.numRecoveries;
          trace::instant("recovery", "stream.retry_recovered", "chunk", chunk + 1);
          std::ostringstream os;
          os << "streaming chunk " << chunk + 1 << " recovered on attempt " << a + 1
             << " of " << attempts;
          push_warning(os.str());
        }
      } catch (const CancelledError&) {
        throw;
      } catch (const DeadlineExceededError&) {
        throw;
      } catch (const std::exception& e) {
        std::ostringstream os;
        os << "streaming chunk " << chunk + 1 << " attempt " << a + 1 << " of "
           << attempts << " failed: " << e.what();
        push_warning(os.str());
      }
    }
    if (!done) {
      ++out.numRecoveries;
      trace::instant("recovery", "stream.greedy_fallback", "chunk", chunk + 1);
      push_warning("streaming chunk " + std::to_string(chunk + 1) +
                   " failed every attempt; assigned least-loaded");
      assign_least_loaded(lo, hi);
    }
  }

  GeoPartition p(pts, K, std::move(part));
  if (cfg.validateLevel == ValidateLevel::kStrict)
    validate_partition_or_throw(pts, p, "stream-partition");

  static metrics::Counter& runs = metrics::counter("partition.stream.runs");
  static metrics::Counter& recovered = metrics::counter("partition.recoveries");
  runs.add();
  recovered.add(out.numRecoveries);

  out.cutsize = connectivity_cutsize(pts, p);
  out.imbalance = imbalance(pts, p);
  out.partition = std::move(p);
  out.seconds = timer.seconds();
  return out;
}

}  // namespace fghp::part::geo
