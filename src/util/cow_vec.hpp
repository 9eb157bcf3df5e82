// Chunked copy-on-write vector.
//
// Storage is split into fixed-size chunks, each held by a shared_ptr.
// Copying a CowVec copies only the chunk table, so a copy is O(n / chunk)
// pointer bumps and the element payload is structurally shared. Mutation
// goes through mut(), which detaches (deep-copies) the touched chunk when
// it is shared with another CowVec. This makes "clone the design, edit a
// handful of entries" cost O(edited chunks) instead of O(design), which is
// what the serving layer's snapshot chain relies on.
//
// Thread-safety: the shared_ptr control blocks make concurrent *copies* of
// the same CowVec safe (refcounts are atomic). Element data carries no
// synchronization: a chunk reachable from more than one CowVec must be
// treated as immutable, and mut() must only be called on an instance that
// is confined to one thread. Both invariants hold for the snapshot model —
// published snapshots are const, and edits happen on thread-private copies.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace tka::util {

template <typename T, std::size_t ChunkPow = 9>
class CowVec {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkPow;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  using value_type = T;
  using Chunk = std::vector<T>;

  CowVec() = default;
  explicit CowVec(std::size_t n, const T& value = T{}) {
    for (std::size_t i = 0; i < n; ++i) push_back(value);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    TKA_ASSERT(i < size_);
    return (*chunks_[i >> ChunkPow])[i & kChunkMask];
  }
  const T& at(std::size_t i) const {
    TKA_CHECK(i < size_, "CowVec: index out of range");
    return (*chunks_[i >> ChunkPow])[i & kChunkMask];
  }

  /// Mutable access; detaches (deep-copies) the chunk when it is shared.
  T& mut(std::size_t i) {
    TKA_ASSERT(i < size_);
    return (*detached(i >> ChunkPow))[i & kChunkMask];
  }

  void push_back(T value) {
    const std::size_t chunk = size_ >> ChunkPow;
    if ((size_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_shared<Chunk>());
      chunks_.back()->reserve(kChunkSize);
    }
    detached(chunk)->push_back(std::move(value));
    ++size_;
  }

  void clear() {
    chunks_.clear();
    size_ = 0;
  }

  /// Number of storage chunks (for sharing diagnostics).
  std::size_t num_chunks() const { return chunks_.size(); }

  /// True when chunk `c` is also reachable from another CowVec.
  bool chunk_shared(std::size_t c) const {
    TKA_ASSERT(c < chunks_.size());
    return chunks_[c].use_count() > 1;
  }

  /// Calls fn(key, chunk) for every chunk; `key` is stable for the chunk's
  /// lifetime and identical across CowVecs that share the chunk, so a
  /// caller can dedup structurally shared storage by pointer.
  template <typename Fn>
  void visit_chunks(Fn&& fn) const {
    for (const auto& c : chunks_) {
      if (c) fn(static_cast<const void*>(c.get()), static_cast<const Chunk&>(*c));
    }
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const CowVec* v, std::size_t i) : vec_(v), i_(i) {}

    reference operator*() const { return (*vec_)[i_]; }
    pointer operator->() const { return &(*vec_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const CowVec* vec_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::shared_ptr<Chunk> detached(std::size_t c) {
    TKA_ASSERT(c < chunks_.size());
    std::shared_ptr<Chunk>& slot = chunks_[c];
    if (slot.use_count() > 1) {
      auto copy = std::make_shared<Chunk>();
      copy->reserve(kChunkSize);
      copy->insert(copy->end(), slot->begin(), slot->end());
      slot = std::move(copy);
    }
    return slot;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace tka::util
