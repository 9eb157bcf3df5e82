// Dependency-counted task graph with work-stealing execution: the one
// scheduler behind every parallel loop in the library. A task becomes
// ready the moment its last predecessor finishes, so independent subtrees
// of a victim sweep overlap across topological levels instead of idling
// at a level barrier (see docs/SCHEDULER.md for the model and the
// determinism contract). runtime::parallel_for (runtime/runtime.hpp) runs
// its chunks as an edge-free graph.
//
// Execution model:
//  * Each lane (the calling thread plus `threads - 1` shared-pool workers)
//    owns a deque: ready tasks are pushed to the owner's bottom and popped
//    LIFO; thieves take from the top, FIFO, scanning victims from a
//    per-lane randomized starting point. Deques are mutex-protected (the
//    tasks here are coarse — whole per-victim candidate builds — so the
//    lock is nanoseconds against the task body, and the simple structure
//    is trivially TSan-clean).
//  * Determinism: the schedule is nondeterministic, the results are not.
//    Task bodies write only per-task result slots; reductions happen on
//    the calling thread after run() returns, in task-index order. Under
//    that discipline any topological execution order yields bit-identical
//    output, so serial (threads = 1) and stolen (threads = N) runs agree
//    exactly.
//  * Exceptions: a throwing task marks its transitive dependents cancelled
//    (they never execute); independent tasks still run. After the drain the
//    lowest-index failure is rethrown on the calling thread. The failed set
//    is execution-order independent, so this too is deterministic.
//  * Serial fallback: threads <= 1, a single task, or a call from inside a
//    pool worker runs every task inline on the calling thread in
//    deterministic Kahn order (ready set drained as an index-seeded FIFO),
//    deadlock-free under nesting by construction.
//
// Telemetry: task bodies book Phase::kExec on the executing lane; the
// steal/park loop books kQueueIdle (workers) or kBarrierWait (the caller).
// Successful steals increment the lane's `steals` counter and surface as
// the runtime.steals / runtime.lane.<i>.steals and runtime.task_graph.*
// gauges — gauges, never BENCH counters, because steal counts depend on
// thread count and timing (docs/BENCHMARKING.md).
#pragma once

#include <cstddef>

#include <functional>
#include <utility>
#include <vector>

namespace tka::runtime {

class TaskGraph {
 public:
  /// A graph over tasks 0 .. num_tasks-1 with no edges yet.
  explicit TaskGraph(std::size_t num_tasks) : num_tasks_(num_tasks) {}

  std::size_t size() const { return num_tasks_; }

  /// Declares that `from` must complete before `to` may start. Duplicate
  /// edges are tolerated (deduplicated when the graph seals on run), so
  /// callers deriving edges from overlapping sources — e.g. a fanin that is
  /// also a coupled partner — need not dedupe themselves. Self-edges and
  /// out-of-range indices are ignored.
  void add_edge(std::size_t from, std::size_t to) {
    if (from == to || from >= num_tasks_ || to >= num_tasks_) return;
    edges_.emplace_back(from, to);
    sealed_ = false;
  }

  /// Runs body(t) for every task t, respecting edges, on `threads` resolved
  /// lanes (the caller plus shared-pool workers). Blocks until every task
  /// has executed or been cancelled by a failed predecessor; rethrows the
  /// lowest-index failure. Cycles are a caller bug, detected when the graph
  /// seals (one Kahn pass): run() throws std::logic_error before executing
  /// anything. Reentrant-safe: a run issued from inside a pool worker
  /// executes inline.
  void run(int threads, std::function<void(std::size_t)> body);

  /// Total dependency edges after deduplication (seals the graph).
  std::size_t num_edges();

 private:
  void seal();
  void run_serial(const std::function<void(std::size_t)>& body);

  std::size_t num_tasks_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  // CSR successors + per-task predecessor counts, built by seal().
  std::vector<std::size_t> succ_off_;
  std::vector<std::size_t> succ_;
  std::vector<std::size_t> preds_;
  bool sealed_ = false;
  bool cyclic_ = false;
};

}  // namespace tka::runtime
