// Scoped-span tracer: nested begin/end spans with arguments, recorded
// against the obs clock, exportable as Chrome trace-event JSON (open in
// chrome://tracing or https://ui.perfetto.dev) and as a human-readable
// summary tree (span path -> count, total/self wall time).
//
// Recording is off by default; a ScopedSpan constructed while the tracer
// is disabled costs one relaxed atomic load. Enable with
// `obs::tracer().enable(true)` before the work of interest, then write the
// trace with `write_chrome_json`.
//
// Threading: every thread records into its own buffer (registered on first
// span, guarded by its own mutex), so concurrent spans from pool workers
// never contend on a shared vector. Nesting is tracked per thread; a span
// begun on a worker is a root of that worker's lane. Export/summary/clear
// aggregate across all buffers. Each thread's lane carries a stable small
// `tid` (registration ordinal) in the Chrome trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tka::obs {

/// One completed (or in-flight) span.
struct SpanEvent {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = -1;     ///< -1 while the span is still open
  std::int32_t parent = -1;     ///< index into the owning thread's buffer, -1 = root
  std::int32_t tid = 0;         ///< small per-thread ordinal (lane in the trace)
  std::string args_json;        ///< rendered `"k": v` pairs, comma-separated
};

/// Aggregated summary row (one per distinct span path).
struct SpanSummary {
  std::string path;             ///< names joined by '/', root first
  std::size_t depth = 0;
  std::uint64_t count = 0;
  double total_s = 0.0;         ///< sum of span durations
  double self_s = 0.0;          ///< total minus time in child spans
};

class Tracer {
 public:
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Discards all recorded events (open spans detach harmlessly).
  void clear();

  std::size_t num_events() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit":
  /// "ns"}. Timestamps are microseconds relative to the first event. Spans
  /// still open at write time are skipped.
  void write_chrome_json(std::ostream& out) const;

  /// Human-readable summary tree, indented by nesting depth.
  void write_summary(std::ostream& out) const;

  /// Summary rows, sorted by path (parents precede children).
  std::vector<SpanSummary> summarize() const;

  // ScopedSpan internals.
  /// Returns a packed generation|index token, or -1 when disabled.
  std::int64_t begin_span(std::string_view name, std::int64_t start_ns);
  void end_span(std::int64_t token, std::int64_t dur_ns, std::string&& args_json);

 private:
  struct ThreadBuffer;  // per-thread span storage; defined in trace.cpp
  ThreadBuffer& this_thread_buffer();

  // Lock order: mu_ (buffer registry) before any ThreadBuffer::mu.
  // Recording paths take only the calling thread's buffer mutex; the
  // aggregate paths (export/summary/clear/num_events) take mu_ then each
  // buffer's in turn.
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint32_t> generation_{0};  // bumped by clear(); stale tokens drop
  std::atomic<bool> enabled_{false};
};

/// The global tracer.
Tracer& tracer();

/// RAII span: records begin on construction, duration on destruction.
/// Arguments attach key/value pairs visible in the Chrome trace viewer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span is actually being recorded (tracer enabled at
  /// construction) — lets callers skip costly argument formatting.
  bool recording() const { return token_ >= 0; }

  ScopedSpan& arg(std::string_view key, std::int64_t v);
  ScopedSpan& arg(std::string_view key, double v);
  ScopedSpan& arg(std::string_view key, std::string_view v);

 private:
  std::int64_t token_ = -1;
  std::int64_t start_ns_ = 0;
  std::string args_;
};

/// One-stop dump for `--metrics` and the bench harness: the registry JSON
/// plus a "spans" array from the tracer summary —
/// { "counters": ..., "gauges": ..., "histograms": ...,
///   "spans": [{"path": str, "count": int, "total_s": num, "self_s": num}] }
void write_metrics_json(std::ostream& out);

}  // namespace tka::obs
