// The observability clock: one process-wide monotonic time source.
//
// Every runtime figure the library reports — span timestamps, histogram
// samples, TopkStats::runtime_s / runtime_by_k — is derived from this
// clock, so numbers from different layers are directly comparable. The
// header depends on nothing else in obs, so any layer can time itself
// without pulling in the metrics registry or the tracer.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__linux__) || defined(__APPLE__)
#include <ctime>
#endif

namespace tka::obs {

/// Nanoseconds on the monotonic (steady) clock. Only differences are
/// meaningful; the epoch is unspecified.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Converts a now_ns() difference to seconds.
inline double ns_to_seconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// Nanoseconds of CPU time consumed by the calling thread. Differences
/// against wall time expose involuntary waiting: a lane whose exec phase
/// spans 500ms of wall but only 300ms of CPU spent 200ms runnable but
/// preempted (e.g. two threads time-slicing one core). Falls back to
/// now_ns() where no per-thread CPU clock exists, which makes the stall
/// read as zero rather than as 100%.
inline std::int64_t thread_cpu_ns() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }
#endif
  return now_ns();
}

}  // namespace tka::obs
