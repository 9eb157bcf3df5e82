// Process-wide metrics registry: named counters, gauges and fixed-bucket
// exponential histograms.
//
// Updates are relaxed atomics on pre-looked-up metric objects, so hot loops
// pay one atomic RMW per event and the registry stays usable from multiple
// threads (registration takes a mutex; hoist lookups out of loops:
//
//   obs::Counter& sets = obs::registry().counter("topk.sets_generated");
//   for (...) sets.add();
//
// Metric objects are never destroyed or reallocated once registered —
// references stay valid for the life of the process, including across
// registry().reset(), which only zeroes values.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

// Always 1: observability has one build; perfbench still prints the macro.
#define TKA_OBS_ENABLED 1

namespace tka::obs {

/// Distribution summary of one histogram at snapshot time. Percentiles are
/// bucket-resolved: each reports the upper bound of the bucket where the
/// cumulative count crosses the quantile, so they are conservative to one
/// bucket width. `max` is the upper bound of the highest non-empty bucket;
/// samples landing in the +Inf overflow bucket clamp it to the histogram's
/// top finite bound (so the JSON stays finite).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

/// Point-in-time copy of every metric in the registry: counters, gauges,
/// and per-histogram distribution summaries (count/sum/p50/p90/max — full
/// bucket arrays stay behind write_json()/visit_histograms()).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Per-name counter increments between two snapshots (`after` - `before`).
/// Names absent from `before` count from zero; names that only exist in
/// `before` are dropped. Counters are monotone, so negative deltas cannot
/// occur outside an interleaved registry().reset(). Gauges are
/// last-write-wins scalars with no meaningful difference, so the delta
/// carries `after`'s gauge values unchanged. Histogram `count` and `sum`
/// subtract like counters; the percentile fields are distribution shapes,
/// not monotone tallies, so the delta carries `after`'s values for them.
MetricsSnapshot counters_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (doubles stored as bit patterns for atomicity).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed-bucket exponential histogram. Bucket upper bounds are laid out
/// geometrically from `lo` (bucket 0) to `hi` (bucket kNumBuckets-2); the
/// last bucket is +inf. Values below `lo` land in bucket 0. The bounds are
/// fixed at registration; later `histogram()` lookups ignore their spec.
///
/// Concurrency: observe() touches three atomics (bucket, count, sum) with
/// no transaction around them, so a reader that races a writer can see a
/// bucket increment before the matching count/sum update. That skew is
/// bounded by the number of in-flight observe() calls and is benign for
/// monitoring; stats() therefore derives its total from the bucket array
/// itself rather than trusting count_ to match. No torn reads are possible
/// (every field is a relaxed atomic), so TSan is clean by construction.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 32;

  Histogram(double lo, double hi);

  void observe(double v);

  /// Distribution summary safe to call while workers observe() concurrently
  /// (count is re-derived from a point-in-time bucket copy).
  HistogramStats stats() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket `i`; +inf for the last bucket.
  double bucket_upper(std::size_t i) const { return upper_[i]; }

  void reset();

 private:
  std::array<double, kNumBuckets> upper_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// The process-wide named-metric registry.
class MetricsRegistry {
 public:
  /// Find-or-create. References remain valid forever (see file comment).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double lo = 1e-6, double hi = 100.0);

  /// Dumps every metric as one JSON object:
  /// { "counters": {name: int}, "gauges": {name: num},
  ///   "histograms": {name: {"count": int, "sum": num,
  ///                         "buckets": [{"le": num|"+Inf", "n": int}]}} }
  /// Histogram buckets with zero count are omitted.
  void write_json(std::ostream& out) const;

  /// The three fields of write_json without the surrounding braces, for
  /// callers that splice extra fields into the same object.
  void write_json_fields(std::ostream& out) const;

  /// Copies every counter and gauge value plus per-histogram summary stats.
  /// The benchmark harness takes a snapshot around each timed repetition and
  /// records the counter deltas. Safe to call while worker threads update
  /// metrics (see the Histogram class comment for the benign-skew caveat).
  MetricsSnapshot snapshot() const;

  /// Visits every registered histogram (name-ordered) under the registry
  /// lock. Used by the Prometheus writer, which needs full bucket arrays
  /// rather than the percentile summary carried by snapshot().
  void visit_histograms(
      const std::function<void(const std::string&, const Histogram&)>& fn) const;

  /// Zeroes every value; metric objects (and references) survive. Tests use
  /// this to isolate runs.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The global registry.
MetricsRegistry& registry();

/// Pre-registers the library's metric name catalog (see
/// docs/OBSERVABILITY.md) so a metrics dump contains every well-known name
/// even when a phase never ran. Idempotent.
void register_core_metrics();

}  // namespace tka::obs
