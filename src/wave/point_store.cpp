#include "wave/point_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "util/assert.hpp"

namespace tka::wave {
namespace {

// Growth capacities are powers of two from 4 points up to 64 Ki points
// (1 MiB); past that the doubled size is taken as is.
constexpr std::size_t kMinGrowPoints = 4;
constexpr std::size_t kMaxRoundedPoints = 65536;

Point* allocate(std::size_t n) {
  return static_cast<Point*>(::operator new(n * sizeof(Point)));
}

}  // namespace

void PointStore::assign(const Point* src, std::size_t n) {
  if (n > cap_) {
    // Copies are content-sized snapshots (result lists, extension seeds),
    // not growth paths: allocate the block exact instead of rounding up to
    // a power of two, or every long-lived copy carries the slack.
    Point* block = allocate(n);
    if (spilled()) ::operator delete(data_);
    data_ = block;
    cap_ = static_cast<std::uint32_t>(n);
  }
  if (n > 0) std::memcpy(data_, src, n * sizeof(Point));
  size_ = static_cast<std::uint32_t>(n);
}

void PointStore::shrink_to_fit() {
  if (!spilled()) return;
  Point* old = data_;
  if (size_ <= kInlineCapacity) {
    if (size_ > 0) std::memcpy(inline_, old, size_ * sizeof(Point));
    data_ = inline_;
    cap_ = kInlineCapacity;
  } else {
    if (size_ == cap_) return;
    data_ = allocate(size_);
    std::memcpy(data_, old, size_ * sizeof(Point));
    cap_ = size_;
  }
  ::operator delete(old);
}

void PointStore::grow(std::size_t need) {
  TKA_ASSERT(need > cap_);
  std::size_t new_cap = std::max<std::size_t>(cap_ * 2, need);
  if (new_cap <= kMaxRoundedPoints) {
    new_cap = std::bit_ceil(std::max(new_cap, kMinGrowPoints));
  }
  Point* block = allocate(new_cap);
  if (size_ > 0) std::memcpy(block, data_, size_ * sizeof(Point));
  if (spilled()) ::operator delete(data_);
  data_ = block;
  cap_ = static_cast<std::uint32_t>(new_cap);
}

void PointStore::release_block() noexcept {
  if (spilled()) {
    ::operator delete(data_);
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
