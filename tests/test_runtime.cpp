// Tests for the parallel execution runtime: thread pool (futures, exception
// propagation, the on-pool-thread flag, shutdown draining), the parallel
// loop on the shared pool (coverage, deterministic per-index results,
// lowest-index rethrow, nested inlining), and thread-count resolution. The
// task graph the loop runs on is covered in test_task_graph.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/thread_pool.hpp"

namespace tka::runtime {
namespace {

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitRunsInlineWithoutWorkers) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::atomic<int> ran{0};
  auto f = pool.submit([&]() { ran.store(1); });
  // No workers: the task completed before submit returned.
  EXPECT_EQ(ran.load(), 1);
  f.get();
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t kN = 1000;
  for (int threads : {1, 2, 8}) {
    std::vector<int> hits(kN, 0);
    runtime::parallel_for(threads, 0, kN, [&](std::size_t i) { hits[i] += 1; },
                          /*grain=*/1);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i], 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPool, ParallelForDeterministicPerIndexResults) {
  std::vector<std::uint64_t> serial(777);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = i * i + 17;
  for (int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> out(serial.size(), 0);
    runtime::parallel_for(threads, 0, out.size(),
                          [&](std::size_t i) { out[i] = i * i + 17; });
    EXPECT_EQ(out, serial) << threads << " threads";
  }
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  EXPECT_THROW(runtime::parallel_for(4, 0, 100,
                                     [&](std::size_t i) {
                                       if (i == 99) throw std::runtime_error("x");
                                     }),
               std::runtime_error);
  // The shared pool is still usable after a failed loop.
  std::atomic<std::size_t> n{0};
  runtime::parallel_for(4, 0, 10, [&](std::size_t) { n.fetch_add(1); },
                        /*grain=*/1);
  EXPECT_EQ(n.load(), 10u);
}

TEST(ThreadPool, ParallelForRethrowsLowestChunkException) {
  // Every index throws its own value; the lowest index's exception is the
  // one that surfaces, at every thread count.
  for (int threads : {1, 2, 8}) {
    try {
      runtime::parallel_for(
          threads, 0, 100,
          [&](std::size_t i) { throw std::runtime_error(std::to_string(i)); },
          /*grain=*/1);
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0") << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A nested loop issued from a pool worker must not wait on the same
  // pool (deadlock); it degrades to inline execution. The outer chunk
  // that runs on the calling thread is allowed to fan its inner loop out,
  // so the inner body writes per-index slots like any parallel client.
  for (int threads : {2, 8}) {
    std::vector<std::uint64_t> inner(8 * 100, 0);
    std::vector<std::uint64_t> sums(8, 0);
    runtime::parallel_for(
        threads, 0, sums.size(),
        [&](std::size_t outer) {
          runtime::parallel_for(threads, 0, 100, [&](std::size_t i) {
            inner[outer * 100 + i] = i + outer;
          });
          std::uint64_t local = 0;
          for (std::size_t i = 0; i < 100; ++i) local += inner[outer * 100 + i];
          sums[outer] = local;
        },
        /*grain=*/1);
    for (std::size_t outer = 0; outer < sums.size(); ++outer) {
      EXPECT_EQ(sums[outer], 4950u + 100u * outer) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, OnPoolThreadFlag) {
  EXPECT_FALSE(on_pool_thread());
  ThreadPool pool(2);
  auto f = pool.submit([]() { return on_pool_thread(); });
  EXPECT_TRUE(f.get());
  EXPECT_FALSE(on_pool_thread());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
  }  // ~ThreadPool: pending tasks complete before the workers join
  EXPECT_EQ(done.load(), 16);
}

TEST(Runtime, ResolveThreadsPrecedence) {
  const char* saved = std::getenv("TKA_THREADS");
  const std::string saved_value = saved ? saved : "";

  setenv("TKA_THREADS", "3", 1);
  EXPECT_EQ(resolve_threads(5), 5);  // explicit request wins
  EXPECT_EQ(resolve_threads(0), 3);  // then the environment
  setenv("TKA_THREADS", "not-a-number", 1);
  EXPECT_GE(resolve_threads(0), 1);  // garbage ignored -> hardware
  unsetenv("TKA_THREADS");
  EXPECT_GE(resolve_threads(0), 1);  // hardware concurrency, at least 1

  if (saved != nullptr) setenv("TKA_THREADS", saved_value.c_str(), 1);
}

TEST(Runtime, SharedPoolGrowsAndCapsFanout) {
  // pool(n) serves n lanes with the caller as one of them: n - 1 workers.
  ThreadPool& small = pool(2);
  EXPECT_GE(small.size(), 1u);
  ThreadPool& big = pool(6);
  EXPECT_GE(big.size(), 5u);
  // A later, smaller request reuses the grown pool; parallel_for caps the
  // fan-out instead of shrinking it. Just exercise the path.
  std::vector<int> hits(64, 0);
  runtime::parallel_for(2, 0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace tka::runtime
