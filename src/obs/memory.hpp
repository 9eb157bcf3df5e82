// Memory accounting: process RSS readings, a background RSS sampler, and
// the TrackedBytes hook that lets owning data structures (envelope cache,
// candidate tables, what-if memo) publish their approximate footprint as
// mem.* gauges.
//
// The raw RSS readers are plain /proc reads with no registry behind them,
// so the bench harness records peak_rss_bytes without the sampler running.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"

namespace tka::obs {

/// Current resident set size in bytes (VmRSS from /proc/self/status).
/// Returns 0 when the pseudo-file is unavailable (non-Linux platforms).
std::uint64_t current_rss_bytes();

/// Kernel-maintained peak resident set size in bytes (VmHWM). Monotone for
/// the life of the process. Returns 0 when unavailable.
std::uint64_t peak_rss_bytes();

/// Background thread that samples RSS every `interval_ms` and publishes the
/// mem.rss_bytes (timeline) and mem.rss_peak_bytes (monotone high-water)
/// gauges. peak() folds in the kernel's VmHWM so short spikes between
/// samples are not lost. Stops (joining the thread) on destruction.
class RssSampler {
 public:
  explicit RssSampler(int interval_ms = 100);
  ~RssSampler();

  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void stop();

  /// Highest RSS seen so far (max of samples and VmHWM); monotone.
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Number of samples taken so far.
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void loop(int interval_ms);
  void sample_once();

  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

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
