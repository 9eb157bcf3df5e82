#include "wave/point_store.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "obs/memory.hpp"
#include "util/assert.hpp"

namespace tka::wave {
namespace pool {
namespace {

// Size classes: power-of-two point capacities 4 .. 65536 (64 B .. 1 MiB
// blocks). Anything larger is allocated exact and never cached.
constexpr std::size_t kMinClassPoints = 4;
constexpr std::size_t kMaxClassPoints = 65536;
constexpr int kNumClasses = 15;  // log2(65536) - log2(4) + 1
// The byte budget below caps parked memory long before slot exhaustion;
// keeping the slot arrays small also keeps the per-thread cache struct
// (which is .tbss resident once touched) compact.
constexpr std::size_t kMaxBlocksPerClass = 16;
// Sized to hold the hot working set of merge-sweep blocks (a handful of
// 64 B - 8 KiB blocks per class) without letting parked bytes show up in
// peak-RSS — the free lists fill to the budget under churn, and parked
// blocks are resident exactly when the candidate lists peak. The size-class
// hit rate of the sweep loops saturates well below this.
constexpr std::size_t kDefaultCacheBudget = 16u << 10;  // 16 KiB per thread

// Lazy trim protocol: trim_all bumps the epoch and records the budget;
// each thread compares its seen epoch on the next pool interaction.
std::atomic<std::uint64_t> g_trim_epoch{0};
std::atomic<std::size_t> g_trim_keep_bytes{0};

std::atomic<std::size_t> g_cache_budget{kDefaultCacheBudget};

int class_index(std::size_t cap_points) noexcept {
  // Exact-size blocks (shrink_to_fit) come through with arbitrary
  // capacities; only power-of-two capacities in range map to a class,
  // everything else goes straight to the heap.
  if (cap_points < kMinClassPoints || cap_points > kMaxClassPoints ||
      !std::has_single_bit(cap_points)) {
    return -1;
  }
  // Index 0 = kMinClassPoints.
  return std::countr_zero(cap_points) -
         std::countr_zero(kMinClassPoints);
}

// Per-thread accounting deltas. Only the owning thread writes them, and only
// with plain load+store pairs (no lock-prefixed read-modify-write on the
// allocation hot path); stats() sums the cells of every live thread under
// the registry mutex. live/cached are signed: a thread that frees blocks
// another thread allocated legitimately carries a negative delta.
struct StatCells {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> cached{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> hits{0};
};

void bump(std::atomic<std::int64_t>& c, std::int64_t d) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t d) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

struct ThreadCache;

// Tracks every live ThreadCache plus the flushed totals of exited threads.
// Leaked on purpose: thread-exit destructors may run after static teardown
// would have destroyed a function-local registry.
struct Registry {
  std::mutex mu;
  std::vector<ThreadCache*> threads;
  std::int64_t base_live = 0;
  std::int64_t base_cached = 0;
  std::uint64_t base_allocs = 0;
  std::uint64_t base_hits = 0;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Per-thread free lists. Fixed arrays only — the cache itself must never
// allocate on the alloc/release path. The destructor drains everything and
// flushes its counters on thread exit so worker teardown (and
// LeakSanitizer) sees no parked blocks.
struct ThreadCache {
  Point* blocks[kNumClasses][kMaxBlocksPerClass];
  std::uint32_t count[kNumClasses] = {};
  std::size_t cached_bytes = 0;
  std::uint64_t seen_epoch = 0;
  StatCells cells;

  ThreadCache() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(this);
  }

  ~ThreadCache() {
    trim(0);
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.base_live += cells.live.load(std::memory_order_relaxed);
    reg.base_cached += cells.cached.load(std::memory_order_relaxed);
    reg.base_allocs += cells.allocs.load(std::memory_order_relaxed);
    reg.base_hits += cells.hits.load(std::memory_order_relaxed);
    std::erase(reg.threads, this);
  }

  void trim(std::size_t keep_bytes) noexcept {
    // Free largest classes first: fewer frees to reach the budget.
    for (int c = kNumClasses - 1; c >= 0 && cached_bytes > keep_bytes; --c) {
      const std::size_t bytes = (kMinClassPoints << c) * sizeof(Point);
      while (count[c] > 0 && cached_bytes > keep_bytes) {
        ::operator delete(blocks[c][--count[c]]);
        cached_bytes -= bytes;
        bump(cells.cached, -static_cast<std::int64_t>(bytes));
      }
    }
  }

  void maybe_trim() noexcept {
    const std::uint64_t epoch = g_trim_epoch.load(std::memory_order_relaxed);
    if (epoch != seen_epoch) {
      seen_epoch = epoch;
      trim(g_trim_keep_bytes.load(std::memory_order_relaxed));
    }
  }
};

ThreadCache& thread_cache() noexcept {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

std::size_t round_capacity(std::size_t n) noexcept {
  if (n > kMaxClassPoints) return n;
  if (n <= kMinClassPoints) return kMinClassPoints;
  return std::bit_ceil(n);
}

Point* alloc(std::size_t cap_points) {
  const std::size_t bytes = cap_points * sizeof(Point);
  ThreadCache& cache = thread_cache();
  cache.maybe_trim();
  bump(cache.cells.allocs, 1);
  bump(cache.cells.live, static_cast<std::int64_t>(bytes));
  const int c = class_index(cap_points);
  if (c >= 0 && cache.count[c] > 0) {
    bump(cache.cells.hits, 1);
    cache.cached_bytes -= bytes;
    bump(cache.cells.cached, -static_cast<std::int64_t>(bytes));
    return cache.blocks[c][--cache.count[c]];
  }
  return static_cast<Point*>(::operator new(bytes));
}

void release(Point* p, std::size_t cap_points) noexcept {
  const std::size_t bytes = cap_points * sizeof(Point);
  ThreadCache& cache = thread_cache();
  cache.maybe_trim();
  bump(cache.cells.live, -static_cast<std::int64_t>(bytes));
  const int c = class_index(cap_points);
  if (c >= 0 && cache.count[c] < kMaxBlocksPerClass &&
      cache.cached_bytes + bytes <=
          g_cache_budget.load(std::memory_order_relaxed)) {
    cache.blocks[c][cache.count[c]++] = p;
    cache.cached_bytes += bytes;
    bump(cache.cells.cached, static_cast<std::int64_t>(bytes));
    return;
  }
  ::operator delete(p);
}

Stats stats() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::int64_t live = reg.base_live;
  std::int64_t cached = reg.base_cached;
  std::uint64_t allocs = reg.base_allocs;
  std::uint64_t hits = reg.base_hits;
  for (const ThreadCache* t : reg.threads) {
    live += t->cells.live.load(std::memory_order_relaxed);
    cached += t->cells.cached.load(std::memory_order_relaxed);
    allocs += t->cells.allocs.load(std::memory_order_relaxed);
    hits += t->cells.hits.load(std::memory_order_relaxed);
  }
  Stats s;
  // Negative sums only occur transiently, when the cells of an in-flight
  // cross-thread alloc/release pair are read mid-update.
  s.live_bytes = live > 0 ? static_cast<std::uint64_t>(live) : 0;
  s.cached_bytes = cached > 0 ? static_cast<std::uint64_t>(cached) : 0;
  s.alloc_calls = allocs;
  s.cache_hits = hits;
  return s;
}

std::size_t thread_cached_bytes() noexcept {
  return thread_cache().cached_bytes;
}

void trim_thread(std::size_t keep_bytes) noexcept {
  thread_cache().trim(keep_bytes);
}

void trim_all(std::size_t keep_bytes) noexcept {
  g_trim_keep_bytes.store(keep_bytes, std::memory_order_relaxed);
  g_trim_epoch.fetch_add(1, std::memory_order_relaxed);
  ThreadCache& cache = thread_cache();
  cache.seen_epoch = g_trim_epoch.load(std::memory_order_relaxed);
  cache.trim(keep_bytes);
}

void set_thread_cache_budget(std::size_t bytes) noexcept {
  g_cache_budget.store(bytes, std::memory_order_relaxed);
}

void publish_gauges() {
  // Function-local so the handles exist only once obs is actually asked
  // for; TrackedBytes removes its contribution at static teardown.
  static obs::TrackedBytes tracked_total("mem.wave_pool_bytes");
  static obs::TrackedBytes tracked_cached("mem.wave_pool_cached_bytes");
  const Stats s = stats();
  tracked_total.set(static_cast<std::int64_t>(s.live_bytes + s.cached_bytes));
  tracked_cached.set(static_cast<std::int64_t>(s.cached_bytes));
}

}  // namespace pool

void PointStore::assign(const Point* src, std::size_t n) {
  if (n > cap_) {
    // Copies are content-sized snapshots (result lists, extension seeds),
    // not growth paths: allocate the block exact instead of rounding up to
    // a size class, or every long-lived copy parks the class slack.
    Point* block = pool::alloc(n);
    if (spilled()) pool::release(data_, cap_);
    data_ = block;
    cap_ = static_cast<std::uint32_t>(n);
  }
  if (n > 0) std::memcpy(data_, src, n * sizeof(Point));
  size_ = static_cast<std::uint32_t>(n);
}

void PointStore::shrink_to_fit() {
  if (!spilled()) return;
  Point* old = data_;
  const std::size_t old_cap = cap_;
  if (size_ <= kInlineCapacity) {
    if (size_ > 0) std::memcpy(inline_, old, size_ * sizeof(Point));
    data_ = inline_;
    cap_ = kInlineCapacity;
  } else {
    if (size_ == old_cap) return;
    // Exact block: a non-power-of-two capacity bypasses the size classes,
    // so long-lived waveforms occupy exactly their point footprint instead
    // of the next pool class up.
    Point* block = pool::alloc(size_);
    std::memcpy(block, old, size_ * sizeof(Point));
    data_ = block;
    cap_ = static_cast<std::uint32_t>(size_);
  }
  pool::release(old, old_cap);
}

void PointStore::grow(std::size_t need) {
  TKA_ASSERT(need > cap_);
  std::size_t target = cap_ * 2;
  if (target < need) target = need;
  const std::size_t new_cap = pool::round_capacity(target);
  Point* block = pool::alloc(new_cap);
  if (size_ > 0) std::memcpy(block, data_, size_ * sizeof(Point));
  if (spilled()) pool::release(data_, cap_);
  data_ = block;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

void PointStore::release_block() noexcept {
  if (spilled()) {
    pool::release(data_, cap_);
    data_ = inline_;
    cap_ = kInlineCapacity;
  }
  size_ = 0;
}

void PointStore::steal(PointStore& other) noexcept {
  if (other.spilled()) {
    data_ = other.data_;
    size_ = other.size_;
    cap_ = other.cap_;
    other.data_ = other.inline_;
    other.size_ = 0;
    other.cap_ = kInlineCapacity;
  } else {
    if (other.size_ > 0) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(Point));
    }
    size_ = other.size_;
    cap_ = kInlineCapacity;
    other.size_ = 0;
  }
}

}  // namespace tka::wave
