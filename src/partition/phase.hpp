// The partitioner pipeline phases (coarsen / initial / refine / extract) as
// trace spans. A ScopedPhase is the typed form of
// trace::TraceScope("rb.phase", phase_name(p), key, val): one clock read at
// each end, recorded only while tracing is enabled. Phase time is read back
// from the trace — report::Builder aggregates the "rb.phase" spans into
// per-phase wall and busy time (DESIGN.md §16).
#pragma once

#include <cstdint>

#include "util/trace.hpp"

namespace fghp::part {

enum class Phase : int {
  kCoarsen = 0,  ///< multilevel coarsening (all levels of one bisection)
  kInitial,      ///< initial bisection at the coarsest level
  kRefine,       ///< uncoarsening + FM refinement
  kExtract,      ///< side extraction / cut-net splitting in recursive bisection
};

/// The span name of a phase ("coarsen", "initial", "refine", "extract").
constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kCoarsen: return "coarsen";
    case Phase::kInitial: return "initial";
    case Phase::kRefine: return "refine";
    case Phase::kExtract: return "extract";
  }
  return "?";
}

/// RAII "rb.phase" span carrying the optional (key, val) tag (e.g. the
/// multilevel depth).
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p, const char* key = nullptr, std::int64_t val = 0)
      : span_("rb.phase", phase_name(p), key, val) {}

 private:
  trace::TraceScope span_;
};

}  // namespace fghp::part
