#include "util/timer.hpp"

#include "util/trace.hpp"

namespace fghp {

void WallTimer::reset() { startNs_ = trace::now_ns(); }

double WallTimer::seconds() const {
  return static_cast<double>(trace::now_ns() - startNs_) * 1e-9;
}

}  // namespace fghp
