#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace tka::obs {

using util::json::escape;

namespace {

std::string num(double v) {
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  if (std::isnan(v)) return "0";
  return str::format("%.9g", v);
}

std::vector<void (*)()>& collector_list() {
  static auto* list = new std::vector<void (*)()>();
  return *list;
}

std::mutex& collector_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::string prom_name(const std::string& name) {
  std::string out = "tka_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void add_collector(void (*fn)()) {
  if (fn == nullptr) return;
  std::lock_guard<std::mutex> lock(collector_mu());
  for (void (*existing)() : collector_list()) {
    if (existing == fn) return;
  }
  collector_list().push_back(fn);
}

void run_collectors() {
  std::vector<void (*)()> fns;
  {
    std::lock_guard<std::mutex> lock(collector_mu());
    fns = collector_list();
  }
  for (void (*fn)() : fns) fn();
  MetricsRegistry& reg = registry();
  const std::uint64_t cur = current_rss_bytes();
  if (cur != 0) {
    reg.gauge("mem.rss_bytes").set(static_cast<double>(cur));
    Gauge& peak = reg.gauge("mem.rss_peak_bytes");
    const double hwm = static_cast<double>(peak_rss_bytes());
    if (hwm > peak.value()) peak.set(hwm);
  }
}

void write_prometheus_text(std::ostream& out) {
  run_collectors();
  const MetricsSnapshot snap = registry().snapshot();
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << num(value) << "\n";
  }
  registry().visit_histograms([&out](const std::string& name,
                                     const Histogram& h) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      cum += h.bucket_count(i);
      const double le = h.bucket_upper(i);
      out << p << "_bucket{le=\"" << (std::isinf(le) ? "+Inf" : num(le))
          << "\"} " << cum << "\n";
    }
    // Use the bucket-derived total for _count so the series is internally
    // consistent under concurrent observe() (see Histogram class comment).
    out << p << "_sum " << num(h.sum()) << "\n" << p << "_count " << cum << "\n";
  });
}

void write_snapshot_line(std::ostream& out) {
  run_collectors();
  const MetricsSnapshot snap = registry().snapshot();
  out << "{\"t_s\": " << num(ns_to_seconds(now_ns()))
      << ", \"rss_bytes\": " << current_rss_bytes() << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "" : ", ") << "\"" << escape(name)
        << "\": " << value;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "" : ", ") << "\"" << escape(name)
        << "\": " << num(value);
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, stats] : snap.histograms) {
    out << (first ? "" : ", ") << "\"" << escape(name)
        << "\": {\"count\": " << stats.count << ", \"sum\": " << num(stats.sum)
        << ", \"p50\": " << num(stats.p50) << ", \"p90\": " << num(stats.p90)
        << ", \"max\": " << num(stats.max) << "}";
    first = false;
  }
  out << "}}";
}

struct MetricsFileSink::Impl {
  std::ofstream out;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::uint64_t records = 0;
  std::thread thread;

  void write_record() {
    write_snapshot_line(out);
    out << "\n";
    out.flush();
    ++records;
  }

  void loop(int interval_ms) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait_for(lock, std::chrono::milliseconds(interval_ms));
      if (stop) return;
      write_record();
    }
  }
};

MetricsFileSink::MetricsFileSink(std::string path, int interval_ms)
    : impl_(new Impl()) {
  if (interval_ms < 1) interval_ms = 1;
  impl_->out.open(path);
  ok_ = impl_->out.is_open();
  if (!ok_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->write_record();  // initial record so short runs still get data
  }
  impl_->thread = std::thread([this, interval_ms]() { impl_->loop(interval_ms); });
}

MetricsFileSink::~MetricsFileSink() {
  stop();
  delete impl_;
}

void MetricsFileSink::stop() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stop) return;
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  if (ok_) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->write_record();  // final record reflecting end-of-run state
    impl_->out.close();
  }
}

std::uint64_t MetricsFileSink::records() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records;
}

}  // namespace tka::obs
