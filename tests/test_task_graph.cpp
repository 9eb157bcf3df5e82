// Work-stealing task-graph runtime (runtime/task_graph.hpp): dependency
// ordering on diamond/chain/fan-out shapes, exception propagation with
// transitive cancellation, cycle detection, parallel_for coverage, and
// engine bit-identity across thread counts with a forced-steal grain.
// The determinism assertions are the scheduler's hard contract
// (docs/SCHEDULER.md), not a tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gen/circuit_generator.hpp"
#include "io/report_writer.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task_graph.hpp"
#include "session/analysis_session.hpp"
#include "topk/topk_engine.hpp"

namespace tka {
namespace {

// Records, per task, how many of its declared predecessors had already
// finished when the task started. Under a correct scheduler every task
// observes all of them.
struct OrderProbe {
  explicit OrderProbe(std::size_t n) : done(n), order(n, 0) {
    for (auto& d : done) d.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int>> done;
  std::vector<int> order;  // per-task slot: predecessors seen at start

  void run_task(const runtime::TaskGraph& g, std::size_t t,
                const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
    int seen = 0;
    for (const auto& [from, to] : edges) {
      if (to == t && done[from].load(std::memory_order_acquire) != 0) ++seen;
    }
    order[t] = seen;
    done[t].store(1, std::memory_order_release);
    (void)g;
  }
};

void check_edges_respected(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    int threads) {
  runtime::TaskGraph g(n);
  for (const auto& [from, to] : edges) g.add_edge(from, to);
  OrderProbe probe(n);
  g.run(threads, [&](std::size_t t) { probe.run_task(g, t, edges); });
  for (std::size_t t = 0; t < n; ++t) {
    int preds = 0;
    for (const auto& [from, to] : edges) {
      if (to == t) ++preds;
    }
    EXPECT_EQ(probe.order[t], preds)
        << "task " << t << " started before a predecessor finished "
        << "(threads=" << threads << ")";
  }
}

TEST(TaskGraph, DiamondRespectsDependencies) {
  // 0 -> {1, 2} -> 3
  const std::vector<std::pair<std::size_t, std::size_t>> edges = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (int threads : {1, 2, 8}) check_edges_respected(4, edges, threads);
}

TEST(TaskGraph, ChainRunsInOrder) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t t = 0; t + 1 < 16; ++t) edges.emplace_back(t, t + 1);
  for (int threads : {1, 2, 8}) check_edges_respected(16, edges, threads);
}

TEST(TaskGraph, FanOutFanInRespectsDependencies) {
  // 0 fans out to 1..30, all of which feed 31.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t t = 1; t < 31; ++t) {
    edges.emplace_back(0, t);
    edges.emplace_back(t, 31);
  }
  for (int threads : {1, 2, 8}) check_edges_respected(32, edges, threads);
}

TEST(TaskGraph, EveryTaskRunsExactlyOnce) {
  constexpr std::size_t kTasks = 200;
  runtime::TaskGraph g(kTasks);
  for (std::size_t t = 0; t + 3 < kTasks; t += 3) g.add_edge(t, t + 3);
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0, std::memory_order_relaxed);
  g.run(8, [&](std::size_t t) {
    runs[t].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(runs[t].load(std::memory_order_relaxed), 1) << "task " << t;
  }
}

TEST(TaskGraph, DuplicateAndInvalidEdgesTolerated) {
  runtime::TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // duplicate: must not double-count the dependency
  g.add_edge(1, 1);  // self-edge: ignored
  g.add_edge(0, 7);  // out of range: ignored
  g.add_edge(9, 2);  // out of range: ignored
  EXPECT_EQ(g.num_edges(), 1u);
  std::vector<int> ran(3, 0);
  g.run(2, [&](std::size_t t) { ran[t] = 1; });
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 3);
}

TEST(TaskGraph, EmptyGraphAndSingleTask) {
  runtime::TaskGraph empty(0);
  bool called = false;
  empty.run(4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);

  runtime::TaskGraph one(1);
  int runs = 0;
  one.run(4, [&](std::size_t t) {
    EXPECT_EQ(t, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(TaskGraph, CycleDetectedBeforeExecution) {
  runtime::TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      g.run(2, [&](std::size_t) { ran.fetch_add(1); }), std::logic_error);
  EXPECT_EQ(ran.load(), 0) << "no task may run in a cyclic graph";
}

// A failing task must cancel its transitive dependents (they never run),
// leave independent tasks untouched, and rethrow the lowest-index failure
// on the caller — identically at every thread count, including when the
// failing task was stolen.
void check_exception_propagation(int threads) {
  // 0 -> 1 -> 2 (1 throws; 2 must be cancelled), 3..63 independent.
  constexpr std::size_t kTasks = 64;
  runtime::TaskGraph g(kTasks);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0, std::memory_order_relaxed);
  bool threw = false;
  try {
    g.run(threads, [&](std::size_t t) {
      if (t == 1) throw std::runtime_error("task 1 failed");
      ran[t].fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "task 1 failed");
  }
  EXPECT_TRUE(threw) << "threads=" << threads;
  EXPECT_EQ(ran[0].load(), 1);
  EXPECT_EQ(ran[2].load(), 0) << "dependent of a failed task must not run";
  for (std::size_t t = 3; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "independent task " << t << " skipped";
  }
}

TEST(TaskGraph, ExceptionCancelsDependentsSerial) {
  check_exception_propagation(1);
}

TEST(TaskGraph, ExceptionCancelsDependentsStolen) {
  for (int threads : {2, 8}) check_exception_propagation(threads);
}

TEST(TaskGraph, LowestIndexFailureWins) {
  // Both 5 and 40 throw; the caller must always see task 5's error no
  // matter which lane hit which failure first.
  runtime::TaskGraph g(64);
  for (int threads : {1, 2, 8}) {
    try {
      g.run(threads, [](std::size_t t) {
        if (t == 5) throw std::runtime_error("five");
        if (t == 40) throw std::runtime_error("forty");
      });
      FAIL() << "expected a throw (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "five") << "threads=" << threads;
    }
  }
}

TEST(TaskGraph, ReentrantRunFromTaskBodyExecutesInline) {
  runtime::TaskGraph outer(4);
  std::vector<std::atomic<int>> inner_runs(4);
  for (auto& r : inner_runs) r.store(0, std::memory_order_relaxed);
  outer.run(4, [&](std::size_t t) {
    runtime::TaskGraph inner(8);
    std::atomic<int> n{0};
    inner.run(4, [&](std::size_t) { n.fetch_add(1); });
    inner_runs[t].store(n.load(), std::memory_order_relaxed);
  });
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(inner_runs[t].load(), 8);
}

TEST(ParallelForDynamic, CoversRangeOnceAndRethrows) {
  constexpr std::size_t kN = 1000;
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    runtime::parallel_for(threads, 0, kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
    EXPECT_THROW(runtime::parallel_for(
                     threads, 0, kN,
                     [&](std::size_t i) {
                       if (i == 17) throw std::runtime_error("x");
                     },
                     /*grain=*/1),
                 std::runtime_error);
  }
}

TEST(ParallelForDynamic, EmptyRangeIsANoop) {
  bool called = false;
  runtime::parallel_for(8, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// Engine bit-identity across thread counts with a forced tiny grain
// (TKA_TASK_GRAIN=1): every chunk is a single index, maximizing steal
// traffic through the deques — the adversarial schedule for the
// determinism contract. Mirrors test_parallel's equivalence check but
// under steal stress instead of the default grain.
struct GrainGuard {
  GrainGuard() { setenv("TKA_TASK_GRAIN", "1", 1); }
  ~GrainGuard() { unsetenv("TKA_TASK_GRAIN"); }
};

TEST(TaskGraphEngine, BitIdenticalAcrossThreadCountsUnderStealStress) {
  GrainGuard grain;
  gen::GeneratorParams p;
  p.name = "task_graph";
  p.num_gates = 50;
  p.target_couplings = 110;
  p.seed = 23;
  gen::GeneratedCircuit ckt = gen::generate_circuit(p);

  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    std::string serial_json;
    for (int threads : {1, 2, 8}) {
      topk::TopkOptions opt;
      opt.k = 3;
      opt.mode = mode;
      opt.threads = threads;
      opt.beam_cap = 12;
      opt.iterative.sta = ckt.sta_options();
      session::AnalysisSession session(*ckt.netlist, ckt.parasitics, {});
      topk::TopkResult res = session.run(opt);
      res.stats.threads = 0;
      res.stats.runtime_s = 0.0;
      res.stats.runtime_by_k.assign(res.stats.runtime_by_k.size(), 0.0);
      std::ostringstream out;
      io::write_topk_result_json(out, *ckt.netlist, ckt.parasitics, res, 3);
      if (threads == 1) {
        serial_json = out.str();
      } else {
        EXPECT_EQ(out.str(), serial_json)
            << "mode=" << static_cast<int>(mode) << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace tka
