// Waveform breakpoint storage: a point array with a one-point inline buffer
// that spills to a plain heap block.
//
// Every wave::Pwl owns one PointStore. Degenerate waveforms (empty,
// constants) live inline; anything larger takes one block from
// ::operator new, which the releasing thread hands straight back. Growth
// doubles in powers of two from 4 points; copies and shrink_to_fit allocate
// exactly, so waveforms parked in long-lived caches carry no growth slack
// (docs/KERNELS.md, storage section).
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

/// Contiguous Point array with a small inline buffer, spilling to the heap.
/// Vector-like subset the PWL kernels need; grows by power-of-two doubling;
/// never shrinks until destroyed or shrink_to_fit() (clear() keeps the
/// block, matching the reuse patterns of the merge sweeps).
class PointStore {
 public:
  // One point covers the waveforms that are born degenerate and stay that
  // way (empty checks, constants). Anything real — ramps, pulses,
  // envelopes — spills. A bigger inline buffer would ride along as dead
  // weight in every cached or listed waveform: the candidate lists hold
  // thousands of these structs at peak, and the struct itself dominates
  // their footprint.
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
  /// drops the doubling slack the growth path accepts for transient stores.
  void shrink_to_fit();

  /// True when the points live in a heap block rather than inline.
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
