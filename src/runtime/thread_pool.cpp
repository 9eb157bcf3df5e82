#include "runtime/thread_pool.hpp"

#include "runtime/telemetry.hpp"
#include "wave/point_store.hpp"

namespace tka::runtime {
namespace {

thread_local bool t_on_pool_thread = false;

}  // namespace

bool on_pool_thread() { return t_on_pool_thread; }

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_pool_thread = true;
  telemetry::LaneSlot& lane = telemetry::this_lane(/*worker=*/true);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Queue-idle covers the dequeue bookkeeping too; that is nanoseconds
      // against a cv wait and keeps the scope placement simple.
      telemetry::PhaseScope idle(lane, telemetry::Phase::kQueueIdle);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      telemetry::PhaseScope exec(lane, telemetry::Phase::kExec);
      lane.tasks.fetch_add(1, std::memory_order_relaxed);
      task();
    }
  }
  // Deterministic teardown: return this lane's parked waveform-pool blocks
  // before the thread exits rather than relying on TLS destructor order.
  wave::pool::trim_thread();
}

}  // namespace tka::runtime
