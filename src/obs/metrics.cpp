#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "util/string_util.hpp"

namespace tka::obs {

MetricsSnapshot counters_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    delta.counters.emplace(name, value >= base ? value - base : 0);
  }
  delta.gauges = after.gauges;
  for (const auto& [name, stats] : after.histograms) {
    const auto it = before.histograms.find(name);
    HistogramStats d = stats;  // percentiles/max carried from `after`
    if (it != before.histograms.end()) {
      d.count = stats.count >= it->second.count ? stats.count - it->second.count : 0;
      d.sum = stats.sum - it->second.sum;
    }
    delta.histograms.emplace(name, d);
  }
  return delta;
}

namespace {

std::string num(double v) { return str::format("%.9g", v); }

}  // namespace

Histogram::Histogram(double lo, double hi) {
  if (!(lo > 0.0)) lo = 1e-9;
  if (!(hi > lo)) hi = lo * 2.0;
  const double ratio = hi / lo;
  const double steps = static_cast<double>(kNumBuckets - 2);
  for (std::size_t i = 0; i + 1 < kNumBuckets; ++i) {
    upper_[i] = lo * std::pow(ratio, static_cast<double>(i) / steps);
  }
  upper_[kNumBuckets - 1] = std::numeric_limits<double>::infinity();
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i + 1 < kNumBuckets && v > upper_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      bits, std::bit_cast<std::uint64_t>(std::bit_cast<double>(bits) + v),
      std::memory_order_relaxed)) {
  }
}

HistogramStats Histogram::stats() const {
  // Copy the bucket array once, then derive every field from the copy so a
  // concurrent observe() cannot make count and percentiles disagree.
  std::array<std::uint64_t, kNumBuckets> n{};
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    n[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  HistogramStats s;
  for (std::uint64_t c : n) s.count += c;
  s.sum = sum();
  if (s.count == 0) return s;
  // +Inf samples clamp to the top finite bound so the stats stay finite.
  const double top_finite = upper_[kNumBuckets - 2];
  auto bound = [&](std::size_t i) {
    return std::isinf(upper_[i]) ? top_finite : upper_[i];
  };
  const std::uint64_t need50 = (s.count + 1) / 2;
  const std::uint64_t need90 = (s.count * 9 + 9) / 10;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (n[i] == 0) continue;
    cum += n[i];
    if (s.p50 == 0.0 && cum >= need50) s.p50 = bound(i);
    if (s.p90 == 0.0 && cum >= need90) s.p90 = bound(i);
    s.max = bound(i);
  }
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(std::bit_cast<std::uint64_t>(0.0), std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(lo, hi))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n";
  write_json_fields(out);
  out << "\n}";
}

void MetricsRegistry::write_json_fields(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << num(g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << h->count() << ", \"sum\": " << num(h->sum()) << ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (h->bucket_count(i) == 0) continue;
      out << (bfirst ? "" : ", ") << "{\"le\": ";
      if (std::isinf(h->bucket_upper(i))) {
        out << "\"+Inf\"";
      } else {
        out << num(h->bucket_upper(i));
      }
      out << ", \"n\": " << h->bucket_count(i) << "}";
      bfirst = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) snap.histograms.emplace(name, h->stats());
  return snap;
}

void MetricsRegistry::visit_histograms(
    const std::function<void(const std::string&, const Histogram&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, h] : histograms_) fn(name, *h);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& registry() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

void register_core_metrics() {
  MetricsRegistry& reg = registry();
  // Counters.
  for (const char* name :
       {"topk.runs", "topk.whatif_runs", "topk.sets_generated",
        "topk.surviving_sets", "topk.dominance_pruned", "topk.beam_capped",
        "topk.generation_capped", "topk.baseline_refreshes",
        "topk.baseline_refresh_region", "session.whatif_edits",
        "noise.fixpoint_runs", "noise.fixpoint_iterations",
        "noise.fixpoint_nonconverged", "noise.filter_false_sides",
        "noise.envelope_cache_hits", "noise.envelope_cache_misses",
        "dominance.sig_rejects", "dominance.exact_checks",
        "pwl.merge_points", "sta.runs", "transient.solves"}) {
    reg.counter(name);
  }
  // Gauges. Note: runtime/memory telemetry is deliberately gauge- and
  // histogram-valued — the bench harness records per-case *counter* deltas
  // into BENCH_<suite>.json, and those must stay bit-identical across
  // thread counts and obs configurations.
  for (const char* name :
       {"topk.max_list_size", "topk.runtime_s", "session.dirty_victims",
        // Thread-pool attribution aggregates (see src/runtime/telemetry.hpp).
        "runtime.workers", "runtime.lanes", "runtime.exec_s",
        "runtime.queue_idle_s", "runtime.barrier_wait_s", "runtime.tasks",
        "runtime.inline_fors",
        // Per-query runtime deltas published by AnalysisSession::query.
        "runtime.query.exec_s", "runtime.query.barrier_wait_s",
        "runtime.query.queue_idle_s", "runtime.query.wall_s",
        // Memory accounting (see src/obs/memory.hpp).
        "mem.rss_bytes", "mem.rss_peak_bytes", "mem.envelope_cache_bytes",
        "mem.candidate_tables_bytes", "mem.whatif_memo_bytes"}) {
    reg.gauge(name);
  }
  // Histograms (specs must match the instrumentation call sites).
  reg.histogram("topk.ilist_size", 1.0, 65536.0);
  reg.histogram("noise.fixpoint_iters", 1.0, 64.0);
  reg.histogram("sta.run_seconds", 1e-6, 100.0);
  reg.histogram("transient.solve_seconds", 1e-6, 100.0);
}

}  // namespace tka::obs
