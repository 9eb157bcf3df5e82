// Parallel scaling of the top-k engine (docs/PARALLELISM.md): the same
// addition-mode run at 1, 2 and 4 worker threads. Times track wall-clock
// speedup; the reported delays must be bit-identical across thread counts
// (the runtime's core contract), so the delay values double as a
// determinism gate — bench_compare across two files at *any* thread
// configuration must find identical delays.
//
// Harness cases: <ckt>/t<threads>. The explicit per-case thread count
// overrides --threads/TKA_THREADS for the engine run (resolution order,
// runtime/runtime.hpp).
//
// Besides speedup, each row reports *where the lanes spent the rep*: the
// per-lane utilization (exec / wall), the steal count (task-graph tasks a
// lane took from another lane's deque — the work-stealing runtime keeping
// lanes busy across levels, docs/SCHEDULER.md) and the pooled wait share
// (barrier-wait + queue-idle over total lane wall). On a host with fewer
// cores than threads the wait share is the whole story — tools/perf_report
// turns the same lane records (in BENCH_parallel_scaling.json) into the
// full diagnosis. Steal totals also land in the telemetry section
// (notes-only in bench_compare: they depend on thread count and timing).
#include <cstdio>

#include "common.hpp"
#include "runtime/telemetry.hpp"

using namespace tka;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "parallel_scaling");
  // Smoke mirrors the committed baseline cases; the scale tier runs the
  // larger circuits up to 8 threads so the speedup curve joins the
  // long-run trajectory.
  const std::vector<int> thread_counts = bench::scale() == 0
                                             ? std::vector<int>{1, 2}
                                             : std::vector<int>{1, 2, 4, 8};
  const std::vector<std::string> circuits =
      bench::scale() == 0 ? std::vector<std::string>{"i2"}
                          : std::vector<std::string>{"i2", "i5", "i10"};
  const int k = bench::scale() == 0 ? 8 : 20;

  std::printf("Parallel scaling: engine run (addition, k=%d) per thread "
              "count\n\n", k);

  for (const std::string& name : circuits) {
    bench::Design d = bench::build_design(name);
    double serial_median = 0.0;
    for (const int threads : thread_counts) {
      double delay = 0.0, estimated = 0.0;
      const bool ran = h.run_case(str::format("%s/t%d", name.c_str(), threads),
                                  [&](bench::Reporter& r) {
        topk::TopkOptions opt =
            bench::engine_options(d, k, topk::Mode::kAddition);
        opt.threads = threads;
        opt.iterative.threads = threads;
        opt.reevaluate = true;  // the final fixpoint is a parallel phase too
        const std::vector<runtime::LaneCounters> before =
            runtime::lane_snapshot();
        const topk::TopkResult res = bench::run_engine(d, opt);
        delay = res.evaluated_delay;
        estimated = res.estimated_delay;
        r.value("evaluated_delay", delay);
        r.value("estimated_delay", estimated);
        // Steal total over this rep (telemetry, not a gated value: stealing
        // is schedule-dependent by design while the delays above are not).
        std::uint64_t steals = 0;
        for (const runtime::LaneCounters& l :
             runtime::lane_delta(before, runtime::lane_snapshot())) {
          steals += l.steals;
        }
        r.telemetry("steals", static_cast<double>(steals));
      });
      if (!ran) continue;
      const bench::CaseResult& cr = h.results().back();
      const double median = cr.time.median;
      if (threads == 1) serial_median = median;
      std::printf("%-4s threads=%d: delay=%.6f median=%.3fs speedup=%.2fx\n",
                  name.c_str(), threads, delay, median,
                  serial_median > 0.0 ? serial_median / median : 1.0);
      double wall = 0.0, wait = 0.0;
      std::uint64_t case_steals = 0;
      for (const bench::LaneUsage& lane : cr.lanes) {
        // Stall = exec wall minus CPU actually burned: the lane was
        // runnable but preempted. Counts as waiting alongside the
        // explicit barrier/idle parks.
        const double stall = lane.exec_s > lane.exec_cpu_s
                                 ? lane.exec_s - lane.exec_cpu_s
                                 : 0.0;
        wall += lane.wall_s;
        wait += lane.barrier_wait_s + lane.queue_idle_s + stall;
        std::printf("       lane %d (%s): util=%.0f%% exec=%.3fs "
                    "(cpu %.3fs) barrier=%.3fs idle=%.3fs tasks=%llu "
                    "steals=%llu\n",
                    lane.lane, lane.worker ? "worker" : "caller",
                    100.0 * lane.utilization, lane.exec_s, lane.exec_cpu_s,
                    lane.barrier_wait_s, lane.queue_idle_s,
                    static_cast<unsigned long long>(lane.tasks),
                    static_cast<unsigned long long>(lane.steals));
        case_steals += lane.steals;
      }
      if (wall > 0.0) {
        std::printf("       wait share: %.0f%% of %.3fs lane-seconds "
                    "(barrier+idle+preempted), steals=%llu\n",
                    100.0 * wait / wall, wall,
                    static_cast<unsigned long long>(case_steals));
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: identical delays at every thread count "
              "(bit-identical contract);\nspeedup tracks physical cores — "
              "flat on a single-core host.\n");
  return h.finish();
}
