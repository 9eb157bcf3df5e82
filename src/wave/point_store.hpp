// Waveform breakpoint storage: small-buffer-optimized point arrays backed
// by a thread-cached size-class pool instead of the global heap.
//
// Every wave::Pwl owns one PointStore. Small waveforms (couple of
// breakpoints — ramps, pulses, constants) live entirely inline; larger ones
// spill to pool blocks that are recycled through per-thread free lists, so
// the merge-sweep kernels that build and tear down millions of transient
// waveforms per run stop round-tripping malloc (docs/KERNELS.md, storage
// section).
//
// The pool is an allocator *cache*, not a bump arena: blocks are plain
// operator-new memory, individually owned, so a Pwl allocated on one thread
// may be freed on another and long-lived waveforms (envelope caches,
// memoized candidate tables) are never invalidated by a trim. Trimming only
// releases blocks sitting on free lists. pool::trim_all() requests an
// epoch-based lazy trim from every thread — the session issues one per
// query so long-lived shard workers cannot grow their caches unboundedly.
#pragma once

#include <cstddef>
#include <cstdint>

#include <span>

namespace tka::wave {

/// One breakpoint of a piecewise-linear waveform.
struct Point {
  double t = 0.0;  ///< time (ns)
  double v = 0.0;  ///< value (V)

  friend bool operator==(const Point&, const Point&) = default;
};

namespace pool {

/// Process-wide pool accounting (relaxed atomics; exact totals, not a
/// consistent snapshot across fields).
struct Stats {
  std::uint64_t live_bytes = 0;    ///< blocks handed out, not yet released
  std::uint64_t cached_bytes = 0;  ///< blocks parked on thread free lists
  std::uint64_t alloc_calls = 0;   ///< total alloc() calls
  std::uint64_t cache_hits = 0;    ///< alloc() calls served from a free list
};

/// Smallest pooled capacity covering `n` points: a power of two in
/// [4, 65536]. Requests above the largest size class come back exact and
/// bypass the free lists (allocated and freed directly).
std::size_t round_capacity(std::size_t n) noexcept;

/// Allocates a block of `cap_points` points (a value round_capacity
/// returned). Served from the calling thread's free list when possible.
Point* alloc(std::size_t cap_points);

/// Returns a block to the pool. Any thread may release any block; it parks
/// on the *releasing* thread's free list (or is freed outright when the
/// cache is at budget or the class is uncached).
void release(Point* p, std::size_t cap_points) noexcept;

Stats stats() noexcept;

/// Bytes parked on the calling thread's free lists.
std::size_t thread_cached_bytes() noexcept;

/// Frees the calling thread's cached blocks until at most `keep_bytes`
/// remain parked.
void trim_thread(std::size_t keep_bytes = 0) noexcept;

/// Requests that every thread trim its cache to `keep_bytes`. The calling
/// thread trims immediately; others comply lazily at their next pool
/// interaction (a relaxed epoch check — no locks on the hot path).
void trim_all(std::size_t keep_bytes = 0) noexcept;

/// Per-thread cache budget in bytes (overflowing releases free outright).
/// The default (2 MiB) bounds growth even if trim_all is never called.
void set_thread_cache_budget(std::size_t bytes) noexcept;

/// Publishes pool occupancy as mem.* gauges through obs::TrackedBytes:
/// mem.wave_pool_bytes (live + cached, the arena-occupancy gauge) and
/// mem.wave_pool_cached_bytes (free-list bytes only). After every waveform
/// is destroyed and trim_all(0) has been honored by every thread, both
/// return to zero — the balance invariant tests assert.
void publish_gauges();

}  // namespace pool

/// Contiguous Point array with a small inline buffer, spilling to the
/// thread-cached pool. Vector-like subset the PWL kernels need; grows by
/// size-class doubling; never shrinks until destroyed (clear() keeps the
/// block, matching the reuse patterns of the merge sweeps).
class PointStore {
 public:
  // One point covers the waveforms that are born degenerate and stay that
  // way (empty checks, constants). Anything real — ramps, pulses,
  // envelopes — spills, and the free lists make the spill a pointer pop.
  // A bigger inline buffer would ride along as dead weight in every cached
  // or listed waveform: the candidate lists hold thousands of these
  // structs at peak, and the struct itself dominates their footprint.
  static constexpr std::size_t kInlineCapacity = 1;

  PointStore() noexcept : data_(inline_) {}
  PointStore(const PointStore& other) : data_(inline_) {
    assign(other.data_, other.size_);
  }
  PointStore(PointStore&& other) noexcept : data_(inline_) { steal(other); }
  PointStore& operator=(const PointStore& other) {
    if (this != &other) {
      size_ = 0;
      assign(other.data_, other.size_);
    }
    return *this;
  }
  PointStore& operator=(PointStore&& other) noexcept {
    if (this != &other) {
      release_block();
      steal(other);
    }
    return *this;
  }
  ~PointStore() { release_block(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  const Point* data() const { return data_; }
  Point* data() { return data_; }
  const Point* begin() const { return data_; }
  const Point* end() const { return data_ + size_; }
  const Point& operator[](std::size_t i) const { return data_[i]; }
  Point& operator[](std::size_t i) { return data_[i]; }
  const Point& front() const { return data_[0]; }
  const Point& back() const { return data_[size_ - 1]; }
  std::span<const Point> span() const { return {data_, size_}; }

  void clear() noexcept { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  void push_back(const Point& p) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = p;
  }
  /// Drops elements past `n` (n <= size()); used by in-place merge passes.
  void truncate(std::size_t n) noexcept {
    size_ = static_cast<std::uint32_t>(n);
  }
  /// Adopts `n` elements written directly through data() into reserved
  /// capacity (n <= capacity()); lets sweep loops emit points without a
  /// per-push capacity check.
  void set_size(std::size_t n) noexcept {
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(const Point* src, std::size_t n);
  /// Reallocates a spilled block down to the exact point count (or back
  /// into the inline buffer). For long-lived waveforms parked in caches:
  /// drops the size-class rounding slack the growth path accepts for
  /// transient stores. Exact-size blocks bypass the pool's free lists.
  void shrink_to_fit();

  /// True when the points live in a pool block rather than inline.
  bool spilled() const { return data_ != inline_; }
  /// Heap bytes owned (0 while inline) — feeds the mem.* footprint gauges.
  std::size_t heap_bytes() const {
    return spilled() ? cap_ * sizeof(Point) : 0;
  }

 private:
  void grow(std::size_t need);
  void release_block() noexcept;
  void steal(PointStore& other) noexcept;

  Point* data_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineCapacity;
  Point inline_[kInlineCapacity];
};

}  // namespace tka::wave
