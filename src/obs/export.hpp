// Export sinks over the metrics registry: Prometheus-style text exposition,
// JSON-lines periodic snapshots, and the collector hook that lets higher
// layers (runtime telemetry) publish derived gauges just before a snapshot
// without obs depending on them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace tka::obs {

/// Registers a callback that every snapshot-producing writer runs first
/// (publish derived gauges here). Callbacks must be fast, thread-safe and
/// idempotent; registration is permanent and deduplicated by pointer.
void add_collector(void (*fn)());

/// Runs every registered collector and refreshes the mem.rss_bytes /
/// mem.rss_peak_bytes gauges. Called by the writers below; exposed for
/// callers that dump the registry through other paths (write_json).
void run_collectors();

/// Prometheus text exposition (version 0.0.4): one `# TYPE` line plus
/// sample lines per metric, names prefixed `tka_` with non-alphanumerics
/// mapped to '_'. Histograms emit cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`. Runs collectors first.
void write_prometheus_text(std::ostream& out);

/// One JSON object on a single line (a JSONL record):
///   {"t_s": <monotonic seconds>, "rss_bytes": N, "counters": {...},
///    "gauges": {...}, "histograms": {name: {count,sum,p50,p90,max}}}
/// Runs collectors first. No trailing newline — callers add it.
void write_snapshot_line(std::ostream& out);

/// Periodic JSONL snapshot writer: appends one write_snapshot_line record
/// every `interval_ms` on a background thread, plus a final record when
/// stopped/destroyed. Maps to --metrics-out FILE --metrics-interval MS on
/// the CLI and bench harness.
class MetricsFileSink {
 public:
  MetricsFileSink(std::string path, int interval_ms = 500);
  ~MetricsFileSink();

  MetricsFileSink(const MetricsFileSink&) = delete;
  MetricsFileSink& operator=(const MetricsFileSink&) = delete;

  /// Writes the final record and joins the thread. Idempotent.
  void stop();

  bool ok() const { return ok_; }
  std::uint64_t records() const;

 private:
  struct Impl;
  Impl* impl_;
  bool ok_ = false;
};

}  // namespace tka::obs
