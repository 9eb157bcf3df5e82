// Thread-pool attribution: every execution lane (pool worker or a caller
// thread driving parallel_for) accounts its wall time into three buckets —
// executing, queue-idle (worker waiting for work) and barrier-wait (caller
// waiting for its graph to drain) — via nanosecond phase scopes maintained
// by the instrumentation in thread_pool.cpp, task_graph.cpp and
// runtime.cpp.
//
// Nested phases attribute exactly: entering a new phase closes the current
// segment and credits it to the enclosing phase, so a caller that blocks on
// an inner barrier while "executing" an outer chunk books that interval as
// barrier-wait, not exec. Lanes register on first use and persist for the
// life of the process (dead threads keep their totals; deltas over an
// interval where a lane was dead are zero except wall time).
//
// Consumers read lane_snapshot()/lane_delta() (the bench harness records
// per-case per-thread utilization from these) or the runtime.* gauges that
// publish_runtime_metrics() derives — gauges, never counters, because
// BENCH counter deltas must stay bit-identical across thread counts.
//
// With TKA_OBS_DISABLED the whole layer compiles out: snapshots are empty
// and the thread-pool call sites skip their clock reads entirely.
#pragma once

#include <cstdint>

#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"  // defines TKA_OBS_ENABLED

namespace tka::runtime {

/// One lane's accumulated phase totals at a point in time. `wall_ns` is the
/// time since the lane registered (thread start for workers, first
/// parallel_for for callers), so exec + queue_idle + barrier_wait <= wall,
/// with equality (± bookkeeping epsilon) for pool workers, which spend
/// their whole life inside instrumented phases.
struct LaneCounters {
  std::uint64_t exec_ns = 0;
  /// CPU time the lane's thread actually ran during exec segments. On an
  /// oversubscribed host exec_ns - exec_cpu_ns is the involuntary stall:
  /// runnable but preempted. Always <= exec_ns (± scheduler epsilon).
  std::uint64_t exec_cpu_ns = 0;
  std::uint64_t queue_idle_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t tasks = 0;
  /// Task-graph tasks this lane executed that another lane made ready
  /// (popped from a victim's deque, not the lane's own). Zero for inline
  /// work. Thread-count and timing dependent by nature, so it surfaces
  /// only as gauges/lane fields, never BENCH counters.
  std::uint64_t steals = 0;
  std::uint64_t wall_ns = 0;
  bool worker = false;
};

/// Copies every registered lane (registration order, stable indices). An
/// in-progress phase is folded in up to "now", so a worker parked on the
/// queue still shows its current idle stretch. Empty when obs is disabled.
std::vector<LaneCounters> lane_snapshot();

/// Per-lane difference of two snapshots (saturating at zero). Lanes that
/// appear only in `after` count from zero.
std::vector<LaneCounters> lane_delta(const std::vector<LaneCounters>& before,
                                     const std::vector<LaneCounters>& after);

/// Publishes lane aggregates and per-lane figures as runtime.* gauges
/// (runtime.exec_s, runtime.lane.<i>.utilization, ...). Registered as an
/// obs snapshot collector on first lane registration, so export sinks pick
/// the numbers up automatically. No-op when obs is disabled.
void publish_runtime_metrics();

#if TKA_OBS_ENABLED

namespace telemetry {

enum class Phase : int { kNone = 0, kExec = 1, kQueueIdle = 2, kBarrierWait = 3 };

/// Per-thread accounting slot. The bucket totals and the current
/// phase/phase-start markers are relaxed atomics so lane_snapshot() can
/// read them from any thread; `depth` and `stack` are touched only by the
/// owning thread. The phase/phase_start pair is read without a transaction
/// by snapshots, so a racing phase switch can misattribute at most one
/// in-flight segment — benign for monitoring, and torn-read free.
struct LaneSlot {
  static constexpr int kMaxDepth = 16;

  std::atomic<std::uint64_t> exec_ns{0};
  std::atomic<std::uint64_t> exec_cpu_ns{0};
  std::atomic<std::uint64_t> queue_idle_ns{0};
  std::atomic<std::uint64_t> barrier_wait_ns{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<int> phase{0};
  std::atomic<std::int64_t> phase_start_ns{0};
  // Owner-thread-only: the thread CPU clock at the last phase switch.
  // Snapshots never read it (another thread's CPU clock is not foldable),
  // so exec_cpu_ns lags by at most the in-flight segment.
  std::int64_t cpu_start_ns = 0;
  std::int64_t registered_ns = 0;
  bool worker = false;

  // Owner-thread-only nesting state. Pushes beyond kMaxDepth keep counting
  // depth but attribute time to the deepest recorded phase.
  int depth = 0;
  Phase stack[kMaxDepth] = {};

  std::atomic<std::uint64_t>& bucket(Phase p) {
    switch (p) {
      case Phase::kQueueIdle:
        return queue_idle_ns;
      case Phase::kBarrierWait:
        return barrier_wait_ns;
      default:
        return exec_ns;
    }
  }

  // Closes the current segment: wall goes to `p`'s bucket; for exec
  // segments the thread-CPU delta is banked too, so exec - exec_cpu is
  // the lane's involuntary (preempted-while-runnable) stall.
  void credit(Phase p, std::int64_t now, std::int64_t cpu_now) {
    const std::int64_t start = phase_start_ns.load(std::memory_order_relaxed);
    bucket(p).fetch_add(static_cast<std::uint64_t>(now - start),
                        std::memory_order_relaxed);
    if (p == Phase::kExec && cpu_now > cpu_start_ns) {
      exec_cpu_ns.fetch_add(static_cast<std::uint64_t>(cpu_now - cpu_start_ns),
                            std::memory_order_relaxed);
    }
  }

  void push(Phase p) {
    const std::int64_t now = obs::now_ns();
    const std::int64_t cpu_now = obs::thread_cpu_ns();
    if (depth > 0) {
      const int d = depth < kMaxDepth ? depth : kMaxDepth;
      credit(stack[d - 1], now, cpu_now);
    }
    if (depth < kMaxDepth) stack[depth] = p;
    ++depth;
    phase.store(static_cast<int>(p), std::memory_order_relaxed);
    phase_start_ns.store(now, std::memory_order_relaxed);
    cpu_start_ns = cpu_now;
  }

  void pop() {
    const std::int64_t now = obs::now_ns();
    const std::int64_t cpu_now = obs::thread_cpu_ns();
    const int d = depth < kMaxDepth ? depth : kMaxDepth;
    if (d > 0) credit(stack[d - 1], now, cpu_now);
    if (depth > 0) --depth;
    const int nd = depth < kMaxDepth ? depth : kMaxDepth;
    phase.store(nd > 0 ? static_cast<int>(stack[nd - 1]) : 0,
                std::memory_order_relaxed);
    phase_start_ns.store(now, std::memory_order_relaxed);
    cpu_start_ns = cpu_now;
  }
};

/// The calling thread's lane, registering it on first use. `worker` only
/// matters for that first registration (pool workers register themselves in
/// worker_loop before any caller could).
LaneSlot& this_lane(bool worker);

/// RAII phase segment on one lane (see LaneSlot::push/pop for nesting).
class PhaseScope {
 public:
  PhaseScope(LaneSlot& lane, Phase p) : lane_(lane) { lane_.push(p); }
  ~PhaseScope() { lane_.pop(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  LaneSlot& lane_;
};

/// Tally one top-level parallel_for that ran inline (published as the
/// runtime.inline_fors gauge).
void note_inline_for();

/// Tally one task-graph run (fanned out or inline) with its task and
/// deduplicated edge counts; published as runtime.task_graph.{graphs,
/// tasks, edges} gauges. parallel_for loops that fan out over a graph
/// additionally count into runtime.task_graph.dynamic_fors.
void note_task_graph(std::uint64_t tasks, std::uint64_t edges);
void note_dynamic_for();

}  // namespace telemetry

#endif  // TKA_OBS_ENABLED

}  // namespace tka::runtime
