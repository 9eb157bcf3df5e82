#include "runtime/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "runtime/task_graph.hpp"
#include "runtime/telemetry.hpp"

namespace tka::runtime {
namespace {

std::size_t grain_env_override() {
  const char* env = std::getenv("TKA_TASK_GRAIN");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

std::size_t chunk_grain(std::size_t n, int threads, std::size_t grain) {
  const std::size_t forced = grain_env_override();
  if (forced > 0) return forced;
  if (grain > 0) return grain;
  // ~8 chunks per lane: enough slack for stealing to level uneven task
  // costs without drowning tiny bodies in scheduling overhead.
  const std::size_t target = static_cast<std::size_t>(threads) * 8;
  std::size_t g = (n + target - 1) / target;
  return g > 0 ? g : 1;
}

void run_inline(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) {
  // A top-level inline loop books exec on the calling lane (so 1-thread
  // runs still report utilization); nested calls, already inside an
  // accounted phase, skip the clock reads and stay attributed to the
  // enclosing scope.
  telemetry::LaneSlot& lane = telemetry::this_lane(/*worker=*/false);
  if (lane.depth == 0) {
    telemetry::PhaseScope exec(lane, telemetry::Phase::kExec);
    lane.tasks.fetch_add(1, std::memory_order_relaxed);
    telemetry::note_inline_for();
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TKA_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& pool(int threads) {
  static std::mutex mu;
  // Leaked on purpose (like the obs registry/tracer): workers must not be
  // joined during static destruction, and an outgrown pool may still be
  // executing another caller's tasks, so it is abandoned, not deleted —
  // its idle workers cost nothing and growth events are rare (the pool
  // only ever steps up to the largest count ever requested).
  static ThreadPool* current = nullptr;
  // `threads` counts lanes including the calling thread (TaskGraph::run's
  // lane 0 always runs on the caller), so an N-thread request needs only
  // N - 1 pool workers to put exactly N threads to work.
  const std::size_t want =
      threads > 1 ? static_cast<std::size_t>(threads) - 1 : 0;
  std::lock_guard<std::mutex> lock(mu);
  if (current == nullptr || current->size() < want) {
    current = new ThreadPool(want);
  }
  return *current;
}

void parallel_for(int requested, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // The serial path is settled before the grain is: an inline loop never
  // reads TKA_TASK_GRAIN.
  const int threads = on_pool_thread() ? 1 : resolve_threads(requested);
  const std::size_t g = threads > 1 ? chunk_grain(n, threads, grain) : n;
  if (n <= g) {
    run_inline(begin, end, fn);
    return;
  }
  TaskGraph graph((n + g - 1) / g);
  telemetry::note_dynamic_for();
  graph.run(threads, [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = std::min(end, lo + g);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace tka::runtime
