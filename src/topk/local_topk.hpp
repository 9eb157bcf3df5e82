// Deterministic parallel top-n selection: per-worker local heaps merged by
// tree reduction.
//
// The sink-side selection ranks a few thousand scored items and keeps the
// best handful. Sorting the whole list serializes the tail of every
// cardinality; instead each work-stealing chunk keeps a local bounded heap
// of its own candidates and the caller merges the per-chunk survivors
// pairwise, tournament-style (the local-accumulate + tree-reduce idiom of
// multicore top-k kernels). At most n survivors leave any chunk or merge,
// so the reduction moves O(chunks * n) items no matter how large the input.
//
// Determinism contract: items are ordered by (score descending, index
// ascending) — a total order over item *properties*, never over worker or
// chunk identity. Chunk results depend only on the chunk's own items, and
// a pairwise merge of sorted runs under a total order is associative, so
// any chunking and any merge-tree shape yields the same final list —
// bit-identical from 1 thread to N, and equal to a stable descending sort
// of the whole input truncated to n.
#pragma once

#include <cstddef>

#include <algorithm>
#include <vector>

#include "runtime/runtime.hpp"

namespace tka::topk {

/// Indices of the top `n` of `count` items, best first, ordered by
/// score(i) descending with the lower index winning ties. score(i) must be
/// a pure function of i for the duration of the call (chunks evaluate it
/// concurrently).
template <typename ScoreFn>
std::vector<std::size_t> select_top_n(int threads, std::size_t count,
                                      std::size_t n, ScoreFn&& score) {
  std::vector<std::size_t> out;
  if (n == 0 || count == 0) return out;

  struct Entry {
    double score;
    std::size_t index;
    bool operator<(const Entry& o) const {
      if (score != o.score) return score > o.score;
      return index < o.index;
    }
  };

  // One chunk per prospective lane; each fills its slot with its own top n,
  // sorted. The slot count (and each slot's content) depends only on
  // `count` and the items, not on which lane ran the chunk.
  const std::size_t resolved =
      threads > 0 ? static_cast<std::size_t>(threads) : 1;
  const std::size_t grain = std::max<std::size_t>(1, count / resolved / 4);
  const std::size_t chunks = (count + grain - 1) / grain;
  std::vector<std::vector<Entry>> local(chunks);
  runtime::parallel_for(
      threads, 0, chunks,
      [&](std::size_t c) {
        const std::size_t lo = c * grain;
        const std::size_t hi = std::min(count, lo + grain);
        std::vector<Entry>& heap = local[c];
        heap.reserve(n + 1);
        for (std::size_t i = lo; i < hi; ++i) {
          Entry e{score(i), i};
          if (heap.size() < n) {
            heap.push_back(e);
            std::push_heap(heap.begin(), heap.end());  // max-heap of worst
          } else if (e < heap.front()) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = e;
            std::push_heap(heap.begin(), heap.end());
          }
        }
        std::sort_heap(heap.begin(), heap.end());  // best first
      },
      /*grain=*/1);

  // Tree reduction: merge adjacent survivor runs pairwise until one run
  // remains. Each round halves the run count; truncating every merge to n
  // keeps the work bounded. Associativity of ordered merge makes the tree
  // shape irrelevant to the outcome.
  std::vector<Entry> merged;
  for (std::size_t width = 1; width < chunks; width *= 2) {
    for (std::size_t c = 0; c + width < chunks; c += 2 * width) {
      std::vector<Entry>& a = local[c];
      std::vector<Entry>& b = local[c + width];
      merged.clear();
      merged.reserve(std::min(n, a.size() + b.size()));
      std::size_t ia = 0, ib = 0;
      while (merged.size() < n && (ia < a.size() || ib < b.size())) {
        if (ib >= b.size() || (ia < a.size() && a[ia] < b[ib])) {
          merged.push_back(a[ia++]);
        } else {
          merged.push_back(b[ib++]);
        }
      }
      a.swap(merged);
      b.clear();
    }
  }
  out.reserve(local[0].size());
  for (const Entry& e : local[0]) out.push_back(e.index);
  return out;
}

}  // namespace tka::topk
