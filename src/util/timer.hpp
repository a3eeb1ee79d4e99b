// Wall-clock timing helpers for the benchmark harnesses. WallTimer reads the
// trace clock (trace::now_ns), the process's one monotonic time source.
#pragma once

#include <cstdint>

namespace fghp {

/// Monotonic wall-clock stopwatch. start() on construction; seconds() reads
/// the elapsed time without stopping.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restarts the stopwatch.
  void reset();

  /// Elapsed seconds since construction / last reset().
  double seconds() const;

  /// Elapsed milliseconds since construction / last reset().
  double millis() const { return seconds() * 1e3; }

 private:
  std::uint64_t startNs_ = 0;
};

/// Accumulates the total of several timed sections (partitioner phases).
class Accumulator {
 public:
  void add(double seconds) { total_ += seconds; ++count_; }
  double total() const { return total_; }
  long count() const { return count_; }
  double mean() const { return count_ ? total_ / static_cast<double>(count_) : 0.0; }

 private:
  double total_ = 0.0;
  long count_ = 0;
};

}  // namespace fghp
