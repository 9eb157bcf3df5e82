#include "obs/memory.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

namespace tka::obs {
namespace {

// Reads one "<key>:  <n> kB" line from /proc/self/status. Returns 0 when
// the file or key is missing (non-Linux). fopen/fgets keep this
// async-signal-tolerant and allocation-light; the file is tiny.
std::uint64_t read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') continue;
    unsigned long long v = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &v) == 1) kb = v;
    break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::uint64_t current_rss_bytes() { return read_status_kb("VmRSS") * 1024; }

std::uint64_t peak_rss_bytes() { return read_status_kb("VmHWM") * 1024; }

namespace {

// Interned per-name totals for TrackedBytes. Entries are never removed, so
// pointers handed to instances stay valid for the life of the process
// (mirrors the MetricsRegistry ownership rule).
std::atomic<std::int64_t>& intern_total(std::string_view name) {
  static std::mutex mu;
  static auto* totals =
      new std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>,
                   std::less<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = totals->find(name);
  if (it == totals->end()) {
    it = totals
             ->emplace(std::string(name),
                       std::make_unique<std::atomic<std::int64_t>>(0))
             .first;
  }
  return *it->second;
}

}  // namespace

RssSampler::RssSampler(int interval_ms) {
  if (interval_ms < 1) interval_ms = 1;
  sample_once();
  thread_ = std::thread([this, interval_ms]() { loop(interval_ms); });
}

RssSampler::~RssSampler() { stop(); }

void RssSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  sample_once();  // final reading so peak() reflects the full run
}

void RssSampler::loop(int interval_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms));
    if (stop_) break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

void RssSampler::sample_once() {
  const std::uint64_t cur = current_rss_bytes();
  const std::uint64_t hwm = peak_rss_bytes();
  std::uint64_t peak = peak_.load(std::memory_order_relaxed);
  const std::uint64_t candidate = cur > hwm ? cur : hwm;
  while (candidate > peak &&
         !peak_.compare_exchange_weak(peak, candidate,
                                      std::memory_order_relaxed)) {
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry& reg = registry();
  reg.gauge("mem.rss_bytes").set(static_cast<double>(cur));
  reg.gauge("mem.rss_peak_bytes")
      .set(static_cast<double>(peak_.load(std::memory_order_relaxed)));
}

TrackedBytes::TrackedBytes(std::string_view gauge_name)
    : total_(&intern_total(gauge_name)),
      gauge_(&registry().gauge(gauge_name)) {}

TrackedBytes::~TrackedBytes() { set(0); }

void TrackedBytes::add(std::int64_t n) {
  std::int64_t held = held_.load(std::memory_order_relaxed);
  std::int64_t next;
  do {
    next = held + n;
    if (next < 0) next = 0;
  } while (!held_.compare_exchange_weak(held, next, std::memory_order_relaxed));
  const std::int64_t applied = next - held;
  if (applied == 0) return;
  const std::int64_t total =
      total_->fetch_add(applied, std::memory_order_relaxed) + applied;
  gauge_->set(static_cast<double>(total));
}

void TrackedBytes::set(std::int64_t n) {
  if (n < 0) n = 0;
  const std::int64_t prev = held_.exchange(n, std::memory_order_relaxed);
  const std::int64_t applied = n - prev;
  if (applied == 0) return;
  const std::int64_t total =
      total_->fetch_add(applied, std::memory_order_relaxed) + applied;
  gauge_->set(static_cast<double>(total));
}

std::int64_t TrackedBytes::total(std::string_view gauge_name) {
  return intern_total(gauge_name).load(std::memory_order_relaxed);
}

}  // namespace tka::obs
