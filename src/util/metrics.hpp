// Process-wide metrics registry: monotonic counters, gauges and fixed-bucket
// histograms, all updatable concurrently with relaxed atomics.
//
// Two usage patterns:
//
//  * Registered metrics — Registry::global().counter("spmv.expand.words")
//    returns a reference that stays valid for the process lifetime. Hot
//    paths resolve the reference once (function-local static / member) and
//    then pay one atomic add per update. The registry serializes to a flat
//    JSON document (write_json) for the CLIs' --metrics-out flag and the
//    bench harnesses.
//
//  * Standalone instances — Counter / Gauge / Histogram are plain objects;
//    a scoped computation (one exec::Session::run_mt call) can own private
//    counters that concurrent tasks update (its task retries), read them
//    into its result struct, and fold the totals into the registered
//    metrics afterwards.
//
// Metric names are dot-separated paths ("spmv.task_retries"). Recording is
// always on: an atomic add is cheap enough that metrics need no enable gate
// (tracing, which records *events*, is the gated layer — see util/trace.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fghp::json {
class Writer;
}

namespace fghp::metrics {

/// Monotonic counter (resettable for test isolation).
class Counter {
 public:
  void add(std::int64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins sampled value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds;
/// an implicit overflow bucket catches everything above the last bound.
/// Bucket layout is fixed at construction, so observe() is a binary search
/// plus two atomic adds — safe from any thread.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t x);

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  std::size_t num_buckets() const { return bounds_.size() + 1; }
  std::int64_t bucket_count(std::size_t i) const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// Value copy of one histogram (bounds plus per-bucket counts).
struct HistogramSnapshot {
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (overflow bucket)
  std::int64_t count = 0;
  std::int64_t sum = 0;
};

/// Point-in-time value copy of a whole registry, ordered by name — what the
/// JSON serializer formats and what the post-run analyzer (util/report)
/// consumes and diffs.
struct Snapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Name -> metric map. Lookup creates on first use and returns a reference
/// that remains valid for the registry's lifetime (metrics are never
/// removed). Lookups take a mutex — resolve once, not per update.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is consulted only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<std::int64_t> bounds);

  /// Copies every metric's current value (one lock, values relaxed-read).
  Snapshot snapshot() const;

  /// The snapshot as one JSON document (metrics::write_json below).
  void write_json(std::ostream& out) const;

  /// Zeroes every metric, keeping registrations (references stay valid).
  void reset();

  /// The process-global registry the pipeline reports into.
  static Registry& global();

 private:
  template <class M>
  struct Named {
    std::string name;
    std::unique_ptr<M> metric;
  };

  mutable std::mutex mu_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

/// Writes `snap` as one JSON object {"counters":{...},"gauges":{...},
/// "histograms":{...}}, metrics sorted by name, each histogram as its bounds,
/// per-bucket counts, total count and sum — the --metrics-out document and
/// the RunReport's "metrics" section.
void write_json(json::Writer& w, const Snapshot& snap);

/// Shorthands for the global registry.
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) { return Registry::global().gauge(name); }
inline Histogram& histogram(const std::string& name, std::vector<std::int64_t> bounds) {
  return Registry::global().histogram(name, std::move(bounds));
}

/// write_json of the global registry to a file, or to stdout when path is
/// "-" (the CLIs' --metrics-out contract). Throws IoError on write failure.
void write_global_json(const std::string& pathOrDash);

}  // namespace fghp::metrics
