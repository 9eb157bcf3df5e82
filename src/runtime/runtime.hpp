// Runtime entry points: thread-count resolution, the shared process-wide
// worker pool, and the parallel loop every engine phase uses.
//
// Thread-count resolution order (first set wins):
//   1. the explicit per-call option (TopkOptions::threads,
//      IterativeOptions::threads, ... — the CLI's --threads lands here),
//   2. the TKA_THREADS environment variable,
//   3. std::thread::hardware_concurrency().
// A resolved count of 1 is the exact serial fallback: parallel_for runs
// every index inline on the calling thread, in order, through the same
// call, so serial runs are bit-identical to parallel ones by construction.
#pragma once

#include <cstddef>

#include <functional>

#include "runtime/thread_pool.hpp"

namespace tka::runtime {

/// Resolves a requested thread count: `requested` > 0 wins; otherwise
/// TKA_THREADS when set to a positive integer; otherwise the hardware
/// concurrency (at least 1).
int resolve_threads(int requested);

/// The shared pool, sized for `threads` (a resolved count): `threads - 1`
/// workers, since the calling thread is always a lane itself. The pool is
/// created on first use and grown when a larger request arrives; it never
/// shrinks (idle workers cost nothing and TaskGraph::run caps its own
/// fan-out at the requested lane count). Thread-safe.
ThreadPool& pool(int threads);

/// Runs fn(i) for every i in [begin, end) on `requested` resolved lanes, as
/// an edge-free task graph of contiguous chunks of `grain` indices drained
/// by work-stealing lanes (runtime/task_graph.hpp). `grain` 0 picks ~8
/// chunks per lane; the TKA_TASK_GRAIN environment variable overrides
/// either choice, which is how the stress tests force steals on tiny
/// ranges. Chunk-to-lane assignment is the only thing the schedule
/// changes: callers that write per-index slots and reduce on the calling
/// thread in index order get bit-identical results at every thread count.
/// Blocks until every index is done and rethrows the lowest failing
/// chunk's exception. Runs inline, in index order, when the count resolves
/// to 1, the range fits one chunk, or the caller is itself a pool worker
/// (so nested loops cannot deadlock).
void parallel_for(int requested, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

}  // namespace tka::runtime
