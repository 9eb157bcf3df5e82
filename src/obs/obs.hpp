// Umbrella header for the observability layer. See docs/OBSERVABILITY.md
// for the metric name catalog.
#pragma once

#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tka::obs {

/// RAII timer: observes elapsed wall-clock seconds into a histogram when
/// the scope exits.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& hist)
      : hist_(hist), start_ns_(now_ns()) {}
  ~ScopedHistogramTimer() { hist_.observe(ns_to_seconds(now_ns() - start_ns_)); }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram& hist_;
  std::int64_t start_ns_;
};

}  // namespace tka::obs
