#include "obs/memory.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
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
