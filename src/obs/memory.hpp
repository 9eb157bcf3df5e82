// Memory accounting: process RSS readings and the TrackedBytes hook that
// lets owning data structures (envelope cache, candidate tables, what-if
// memo) publish their approximate footprint as mem.* gauges.
//
// The RSS readers are plain /proc reads with no registry behind them;
// obs::run_collectors() publishes them as the mem.rss_bytes and
// mem.rss_peak_bytes gauges before every metrics snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace tka::obs {

/// Current resident set size in bytes (VmRSS from /proc/self/status).
/// Returns 0 when the pseudo-file is unavailable (non-Linux platforms).
std::uint64_t current_rss_bytes();

/// Kernel-maintained peak resident set size in bytes (VmHWM). Monotone for
/// the life of the process. Returns 0 when unavailable.
std::uint64_t peak_rss_bytes();

/// Byte-accounting handle tied to one mem.* gauge. Each instance remembers
/// its own contribution (`held`) and removes it on destruction, so the
/// per-name total returns to zero when every owner is torn down — the
/// balance invariant tests assert. Totals are process-wide atomics keyed by
/// gauge name; every update also publishes the new total to the gauge.
/// add()/set() are thread-safe across instances; a single instance is
/// intended to be driven by one owner at a time (matches the builders and
/// session, whose mutation paths are already serialized).
class TrackedBytes {
 public:
  explicit TrackedBytes(std::string_view gauge_name);
  ~TrackedBytes();

  TrackedBytes(const TrackedBytes&) = delete;
  TrackedBytes& operator=(const TrackedBytes&) = delete;

  /// Adjusts this instance's contribution by `n` bytes (may be negative;
  /// the contribution is clamped at zero).
  void add(std::int64_t n);
  /// Replaces this instance's contribution with `n` bytes (clamped at 0).
  void set(std::int64_t n);
  /// This instance's current contribution.
  std::int64_t held() const { return held_.load(std::memory_order_relaxed); }

  /// Process-wide total across live instances for `gauge_name`; 0 for names
  /// never tracked.
  static std::int64_t total(std::string_view gauge_name);

 private:
  std::atomic<std::int64_t>* total_;  // interned per gauge name, never freed
  Gauge* gauge_;
  std::atomic<std::int64_t> held_{0};
};

}  // namespace tka::obs
