#include "runtime/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "runtime/runtime.hpp"
#include "runtime/telemetry.hpp"

namespace tka::runtime {
namespace {

// Everything a lane may touch after the calling thread has returned from
// run() lives here, behind a shared_ptr each lane copies: a worker that
// wakes up to find the graph complete must only read state it co-owns.
// The CSR arrays stay in the TaskGraph — they are only dereferenced while a
// task executes, and every task finishes before `remaining` reaches zero,
// which is before the caller can return and invalidate the graph.
struct RunState {
  explicit RunState(std::size_t num_tasks, std::size_t num_lanes)
      : pending(num_tasks),
        status(num_tasks),
        errors(num_tasks),
        deques(num_lanes),
        deque_mu(num_lanes) {}

  std::function<void(std::size_t)> body;
  const std::vector<std::size_t>* succ_off = nullptr;
  const std::vector<std::size_t>* succ = nullptr;

  std::vector<std::atomic<std::size_t>> pending;
  // 0 = runnable, 1 = cancelled by a failed/cancelled predecessor.
  std::vector<std::atomic<unsigned char>> status;
  std::vector<std::exception_ptr> errors;
  std::atomic<bool> any_error{false};

  // remaining counts tasks not yet completed (executed or cancelled). The
  // release on the final decrement pairs with the caller's acquire load, so
  // error slots written by workers are visible when run() rethrows.
  std::atomic<std::size_t> remaining{0};

  std::vector<std::deque<std::size_t>> deques;
  std::vector<std::mutex> deque_mu;

  // Parking. `epoch` ticks under wake_mu every time ready tasks are pushed;
  // a lane that swept every deque empty sleeps only if the epoch it read
  // *before* the sweep is still current, which closes the push-after-sweep
  // race without the pusher ever notifying into the void.
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  std::uint64_t epoch = 0;
  std::size_t parked = 0;
};

// Per-lane xorshift for the randomized steal starting point. Seeded from a
// process-wide counter so lanes fan out over distinct victim orders; this
// randomness only shapes the schedule, never the results.
std::size_t steal_seed() {
  static std::atomic<std::size_t> counter{0x9e3779b97f4a7c15ull};
  return counter.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
}

std::size_t xorshift(std::size_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Completes task t (after execution or as a cancellation): decrements each
// successor, pushing the ones that become ready onto `lane_id`'s deque, and
// retires t from `remaining`. Returns true when t was the last task.
bool complete_task(RunState& st, std::size_t t, bool failed,
                   std::size_t lane_id) {
  const std::size_t lo = (*st.succ_off)[t];
  const std::size_t hi = (*st.succ_off)[t + 1];
  bool pushed = false;
  for (std::size_t e = lo; e < hi; ++e) {
    const std::size_t s = (*st.succ)[e];
    if (failed) st.status[s].store(1, std::memory_order_relaxed);
    // acq_rel: the lane that takes `pending` to zero must observe every
    // predecessor's writes (the cancellation flag above and, transitively,
    // the data its body produced).
    if (st.pending[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(st.deque_mu[lane_id]);
      st.deques[lane_id].push_back(s);
      pushed = true;
    }
  }
  if (pushed) {
    std::lock_guard<std::mutex> lock(st.wake_mu);
    ++st.epoch;
    if (st.parked > 0) st.wake_cv.notify_all();
  }
  if (st.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(st.wake_mu);
    st.wake_cv.notify_all();
    return true;
  }
  return false;
}

// Executes one task on `lane_id`, booking exec (and, for cancelled tasks,
// nothing — cancellation is pure bookkeeping).
void exec_task(RunState& st, std::size_t t, std::size_t lane_id) {
  if (st.status[t].load(std::memory_order_relaxed) != 0) {
    complete_task(st, t, /*failed=*/true, lane_id);
    return;
  }
  bool failed = false;
  try {
    telemetry::LaneSlot& lane = telemetry::this_lane(/*worker=*/false);
    telemetry::PhaseScope exec(lane, telemetry::Phase::kExec);
    lane.tasks.fetch_add(1, std::memory_order_relaxed);
    st.body(t);
  } catch (...) {
    st.errors[t] = std::current_exception();
    st.any_error.store(true, std::memory_order_relaxed);
    failed = true;
  }
  complete_task(st, t, failed, lane_id);
}

bool pop_own(RunState& st, std::size_t lane_id, std::size_t& out) {
  std::lock_guard<std::mutex> lock(st.deque_mu[lane_id]);
  if (st.deques[lane_id].empty()) return false;
  out = st.deques[lane_id].back();  // owner takes LIFO for locality
  st.deques[lane_id].pop_back();
  return true;
}

bool try_steal(RunState& st, std::size_t lane_id, std::size_t& rng,
               std::size_t& out) {
  const std::size_t lanes = st.deques.size();
  const std::size_t start = xorshift(rng) % lanes;
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::size_t v = (start + k) % lanes;
    if (v == lane_id) continue;
    std::lock_guard<std::mutex> lock(st.deque_mu[v]);
    if (st.deques[v].empty()) continue;
    out = st.deques[v].front();  // thieves take FIFO from the top
    st.deques[v].pop_front();
    return true;
  }
  return false;
}

// The lane main loop: drain own deque, steal, or park until new work or
// completion. `is_worker` only picks the idle phase bucket — queue-idle for
// pool workers, barrier-wait for the caller (it is "waiting for its own
// fan-out", exactly like a parallel_for join).
void steal_loop(const std::shared_ptr<RunState>& stp, std::size_t lane_id,
                bool is_worker) {
  RunState& st = *stp;
  std::size_t rng = steal_seed() | 1;
  telemetry::LaneSlot& lane = telemetry::this_lane(is_worker);
  const telemetry::Phase idle_phase =
      is_worker ? telemetry::Phase::kQueueIdle : telemetry::Phase::kBarrierWait;
  for (;;) {
    if (st.remaining.load(std::memory_order_acquire) == 0) return;
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(st.wake_mu);
      seen = st.epoch;
    }
    std::size_t t;
    if (pop_own(st, lane_id, t)) {
      exec_task(st, t, lane_id);
      continue;
    }
    if (try_steal(st, lane_id, rng, t)) {
      lane.steals.fetch_add(1, std::memory_order_relaxed);
      exec_task(st, t, lane_id);
      continue;
    }
    {
      telemetry::PhaseScope idle(lane, idle_phase);
      std::unique_lock<std::mutex> lock(st.wake_mu);
      ++st.parked;
      st.wake_cv.wait(lock, [&]() {
        return st.epoch != seen ||
               st.remaining.load(std::memory_order_acquire) == 0;
      });
      --st.parked;
    }
  }
}

}  // namespace

void TaskGraph::seal() {
  if (sealed_) return;
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  succ_off_.assign(num_tasks_ + 1, 0);
  succ_.resize(edges_.size());
  preds_.assign(num_tasks_, 0);
  for (const auto& [from, to] : edges_) {
    ++succ_off_[from + 1];
    ++preds_[to];
  }
  for (std::size_t i = 0; i < num_tasks_; ++i) succ_off_[i + 1] += succ_off_[i];
  std::vector<std::size_t> cursor(succ_off_.begin(), succ_off_.end() - 1);
  for (const auto& [from, to] : edges_) succ_[cursor[from]++] = to;
  // One Kahn pass, ready set drained as an index-seeded FIFO: the serial
  // drain's order, and the cycle check — a cyclic graph would park every
  // lane forever with remaining > 0.
  std::vector<std::size_t> degree = preds_;
  order_.clear();
  order_.reserve(num_tasks_);
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    if (degree[t] == 0) order_.push_back(t);
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const std::size_t t = order_[head];
    for (std::size_t e = succ_off_[t]; e < succ_off_[t + 1]; ++e) {
      if (--degree[succ_[e]] == 0) order_.push_back(succ_[e]);
    }
  }
  cyclic_ = order_.size() != num_tasks_;
  sealed_ = true;
}

std::size_t TaskGraph::num_edges() {
  seal();
  return edges_.size();
}

void TaskGraph::run_serial(const std::function<void(std::size_t)>& body) {
  // Walks the Kahn order seal() stored. Failed tasks cancel their
  // transitive dependents but the drain continues, matching the parallel
  // path's semantics exactly; the cancellation marks are allocated at the
  // first failure.
  std::vector<unsigned char> cancelled;
  std::size_t first_failed = num_tasks_;
  std::exception_ptr first_error;
  for (std::size_t t : order_) {
    bool failed = !cancelled.empty() && cancelled[t] != 0;
    if (!failed) {
      try {
        body(t);
      } catch (...) {
        failed = true;
        if (t < first_failed) {
          first_failed = t;
          first_error = std::current_exception();
        }
      }
    }
    if (!failed) continue;
    if (cancelled.empty()) cancelled.assign(num_tasks_, 0);
    for (std::size_t e = succ_off_[t]; e < succ_off_[t + 1]; ++e) {
      cancelled[succ_[e]] = 1;
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void TaskGraph::run(int threads, std::function<void(std::size_t)> body) {
  seal();
  if (cyclic_) {
    throw std::logic_error("TaskGraph::run: dependency cycle among " +
                           std::to_string(num_tasks_) + " tasks");
  }
  if (num_tasks_ == 0) return;
  const int resolved = resolve_threads(threads);
  telemetry::note_task_graph(num_tasks_, edges_.size());
  if (resolved <= 1 || num_tasks_ == 1 || on_pool_thread()) {
    // Top-level inline graphs book exec on the calling lane, like
    // parallel_for's inline path; nested runs stay attributed to the
    // enclosing scope.
    telemetry::LaneSlot& lane = telemetry::this_lane(/*worker=*/false);
    if (lane.depth == 0) {
      telemetry::PhaseScope exec(lane, telemetry::Phase::kExec);
      lane.tasks.fetch_add(1, std::memory_order_relaxed);
      run_serial(body);
      return;
    }
    run_serial(body);
    return;
  }

  ThreadPool& p = pool(resolved);
  std::size_t lanes = static_cast<std::size_t>(resolved);
  if (lanes > p.size() + 1) lanes = p.size() + 1;
  auto st = std::make_shared<RunState>(num_tasks_, lanes);
  st->body = std::move(body);
  st->succ_off = &succ_off_;
  st->succ = &succ_;
  st->remaining.store(num_tasks_, std::memory_order_relaxed);
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    st->pending[t].store(preds_[t], std::memory_order_relaxed);
  }
  // Initial ready tasks round-robin over the lanes so workers start with
  // local work instead of all stealing from lane 0.
  {
    std::size_t next_lane = 0;
    for (std::size_t t = 0; t < num_tasks_; ++t) {
      if (preds_[t] != 0) continue;
      st->deques[next_lane].push_back(t);
      next_lane = (next_lane + 1) % lanes;
    }
  }
  // Workers run detached from the caller's stack: each holds its own
  // shared_ptr, and completion never requires them to start — the caller
  // lane below can drain the whole graph alone if the pool is saturated.
  for (std::size_t w = 1; w < lanes; ++w) {
    p.submit([st, w]() { steal_loop(st, w, /*is_worker=*/true); });
  }
  steal_loop(st, /*lane_id=*/0, /*is_worker=*/false);
  // Claim the error slots before rethrowing: workers may still be tearing
  // down their shared_ptr copies of the state, and whichever lane releases
  // last would otherwise destroy the stored exception objects — which the
  // caller's in-flight rethrown copy can share guts with (libstdc++
  // runtime_error keeps its message in a COW string). Moving the vector
  // onto the caller pins every exception destruction to this thread; the
  // drain (final remaining decrement, acq_rel) ordered all worker writes
  // to the slots before this point.
  if (st->any_error.load(std::memory_order_relaxed)) {
    std::vector<std::exception_ptr> errors = std::move(st->errors);
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
}

}  // namespace tka::runtime
