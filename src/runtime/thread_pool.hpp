// Fixed-size worker pool: the threads the task-graph scheduler's lanes run
// on (runtime/task_graph.hpp). TaskGraph::run submits one steal loop per
// extra lane; everything else about scheduling lives there.
//
// A task submitted from a pool worker that waits on the same pool could
// deadlock, so on_pool_thread() lets the scheduler run nested graphs and
// loops inline instead.
#pragma once

#include <cstddef>

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tka::runtime {

/// True on a thread currently executing a ThreadPool task. The scheduler
/// uses this to degrade to inline execution instead of deadlocking on
/// nested waits.
bool on_pool_thread();

class ThreadPool {
 public:
  /// Spawns `workers` worker threads; 0 means "no workers" (every submit
  /// runs inline on the calling thread). The calling thread is always an
  /// execution lane of its own, so a pool serving an N-thread request
  /// needs only N - 1 workers.
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: pending tasks are completed before the workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 when the pool is inline-only).
  std::size_t size() const { return workers_.size(); }

  /// Schedules `fn` and returns its future. With no workers the task runs
  /// inline before returning (the future is already ready). Exceptions
  /// surface through the future on get().
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tka::runtime
