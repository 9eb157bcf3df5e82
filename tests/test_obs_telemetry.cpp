// Tests for the runtime-telemetry subsystem: lane phase accounting in the
// thread pool, RSS sampling, TrackedBytes balance across session teardown,
// the export sinks (Prometheus text, JSONL snapshots) and the concurrent
// observe/snapshot contract. With TKA_OBS_DISABLED the same file instead
// proves the telemetry surface collapses to benign no-ops while the sinks
// still emit valid (empty) documents.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "harness/bench_json.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "runtime/telemetry.hpp"
#include "session/analysis_session.hpp"
#include "topk/topk_engine.hpp"

namespace tka {
namespace {

namespace json = bench::json;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

json::Value parse_or_fail(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::parse(text, &v, &error)) << error << "\nin: " << text;
  return v;
}

#if TKA_OBS_ENABLED

// Every worker's delta over an interval must be (almost) fully attributed:
// workers spend their lives inside instrumented phases, so the three
// buckets sum to the lane's wall time up to scheduler/bookkeeping slop.
// The shared pool is process-wide, so its worker lanes may predate this
// test: every worker lane in the delta is checked, not only new ones.
//
// Each round is a two-chunk loop on three lanes. A chunk on a worker
// sleeps; the chunk on the calling thread returns only once a worker's
// chunk has started, so the caller always finishes first and waits at the
// barrier. Rounds repeat until the caller has run a chunk in three of them
// (a worker can steal the caller's chunk before the caller takes it).
TEST(Telemetry, WorkerBucketsSumToWall) {
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<runtime::LaneCounters> before = runtime::lane_snapshot();
  int caller_rounds = 0;
  for (int round = 0; caller_rounds < 3; ++round) {
    ASSERT_LT(round, 100) << "the caller never ran a chunk";
    std::atomic<bool> worker_started{false};
    std::atomic<bool> caller_ran{false};
    std::atomic<bool> timed_out{false};
    runtime::parallel_for(
        3, 0, 2,
        [&](std::size_t) {
          if (std::this_thread::get_id() != caller) {
            worker_started = true;
            sleep_ms(5);
            return;
          }
          caller_ran = true;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!worker_started) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              return;
            }
            std::this_thread::yield();
          }
        },
        /*grain=*/1);
    ASSERT_FALSE(timed_out) << "no worker started a chunk within 10 s";
    if (caller_ran) ++caller_rounds;
    sleep_ms(5);  // park the workers so queue-idle shows up too
  }
  const std::vector<runtime::LaneCounters> after = runtime::lane_snapshot();
  const std::vector<runtime::LaneCounters> delta =
      runtime::lane_delta(before, after);

  int workers_seen = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const runtime::LaneCounters& lane = delta[i];
    if (!lane.worker) continue;
    ++workers_seen;
    ASSERT_GT(lane.wall_ns, 0u);
    const double wall = static_cast<double>(lane.wall_ns);
    const double sum = static_cast<double>(lane.exec_ns + lane.queue_idle_ns +
                                           lane.barrier_wait_ns);
    // A snapshot can race one phase switch (at most one in-flight segment
    // misattributed) and the worker loop has a few unphased instructions
    // per task; both are tiny next to the millisecond sleeps above.
    EXPECT_GE(sum, 0.75 * wall) << "worker lane " << i << " unaccounted time";
    EXPECT_LE(sum, 1.05 * wall + 2e6) << "worker lane " << i
                                      << " over-attributed";
    EXPECT_GT(lane.queue_idle_ns, 0u);  // it was parked between rounds
    // CPU burned inside exec can never exceed the exec wall (± the two
    // clocks' read skew); the tasks here sleep, so it should be far below.
    EXPECT_LE(lane.exec_cpu_ns, lane.exec_ns + 2u * 1000 * 1000)
        << "worker lane " << i << " exec CPU exceeds exec wall";
  }
  EXPECT_GE(workers_seen, 2);  // a 3-lane loop runs on >= 2 pool workers

  // The calling lane ran chunks (exec) and then waited for the drain.
  bool caller_found = false;
  for (const runtime::LaneCounters& lane : delta) {
    if (lane.worker || lane.tasks == 0) continue;
    caller_found = true;
    EXPECT_GT(lane.exec_ns, 0u);
    EXPECT_GT(lane.barrier_wait_ns, 0u);
  }
  EXPECT_TRUE(caller_found);
}

// Entering a nested phase credits the elapsed segment to the *enclosing*
// phase, so an inner barrier-wait interrupts — not inflates — outer exec.
TEST(Telemetry, NestedPhaseCreditsEnclosing) {
  using runtime::telemetry::LaneSlot;
  using runtime::telemetry::Phase;
  LaneSlot slot;
  slot.push(Phase::kExec);
  sleep_ms(10);
  slot.push(Phase::kBarrierWait);
  sleep_ms(10);
  slot.pop();
  sleep_ms(10);
  slot.pop();
  const std::uint64_t exec = slot.exec_ns.load();
  const std::uint64_t wait = slot.barrier_wait_ns.load();
  EXPECT_GE(exec, 19u * 1000 * 1000);  // the two outer sleeps
  EXPECT_GE(wait, 9u * 1000 * 1000);   // the inner sleep only
  EXPECT_EQ(slot.queue_idle_ns.load(), 0u);
  EXPECT_EQ(slot.depth, 0);
  // The exec segments were sleeps: wall ~20ms, CPU near zero. The gap is
  // exactly what perf_report reads as the lane's involuntary stall.
  EXPECT_LT(slot.exec_cpu_ns.load(), exec);
}

TEST(Telemetry, RssSamplerMonotonePeak) {
  const std::uint64_t rss_before = obs::current_rss_bytes();
  ASSERT_GT(rss_before, 0u) << "/proc/self/status should be readable here";
  obs::RssSampler sampler(5);
  sleep_ms(30);
  EXPECT_GT(sampler.samples(), 0u);
  const std::uint64_t peak1 = sampler.peak();
  EXPECT_GE(peak1, rss_before);
  // Touch a fresh 16 MiB so RSS demonstrably grows, then re-read the peak.
  std::vector<char> ballast(16u << 20);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;
  sleep_ms(30);
  const std::uint64_t peak2 = sampler.peak();
  EXPECT_GE(peak2, peak1);  // monotone
  sampler.stop();
  EXPECT_EQ(sampler.peak(), sampler.peak());  // stable once stopped
  EXPECT_GE(obs::registry().gauge("mem.rss_peak_bytes").value(), 0.0);
}

TEST(Telemetry, TrackedBytesBalance) {
  using obs::TrackedBytes;
  EXPECT_EQ(TrackedBytes::total("test.tracked_bytes"), 0);
  {
    TrackedBytes a("test.tracked_bytes");
    TrackedBytes b("test.tracked_bytes");
    a.add(100);
    b.add(50);
    EXPECT_EQ(a.held(), 100);
    EXPECT_EQ(TrackedBytes::total("test.tracked_bytes"), 150);
    a.set(30);
    EXPECT_EQ(TrackedBytes::total("test.tracked_bytes"), 80);
    a.add(-1000);  // clamped at zero, never negative
    EXPECT_EQ(a.held(), 0);
    EXPECT_EQ(TrackedBytes::total("test.tracked_bytes"), 50);
    EXPECT_EQ(obs::registry().gauge("test.tracked_bytes").value(), 50.0);
  }
  EXPECT_EQ(TrackedBytes::total("test.tracked_bytes"), 0);
  EXPECT_EQ(obs::registry().gauge("test.tracked_bytes").value(), 0.0);
}

// The mem.* gauges the session and builders feed must drain to zero when
// the owners are torn down — the balance invariant from the issue.
TEST(Telemetry, SessionByteGaugesDrainOnTeardown) {
  using obs::TrackedBytes;
  {
    test::Fixture fx = test::make_parallel_chains(3, 3);
    test::couple(fx, "c0_n1", "c1_n1", 0.012);
    test::couple(fx, "c0_n2", "c2_n2", 0.006);
    topk::TopkOptions opt;
    opt.k = 2;
    opt.mode = topk::Mode::kElimination;
    opt.iterative.sta = fx.sta_options();
    session::AnalysisSession s(
        *fx.netlist, fx.parasitics, {},
        session::SessionOptions{.retain_candidates = true});
    const topk::TopkResult res = s.run(opt);
    EXPECT_FALSE(res.members.empty());
    EXPECT_GT(TrackedBytes::total("mem.candidate_tables_bytes"), 0);
    EXPECT_GE(TrackedBytes::total("mem.whatif_memo_bytes"), 0);
    EXPECT_GE(TrackedBytes::total("mem.envelope_cache_bytes"), 0);
  }
  EXPECT_EQ(TrackedBytes::total("mem.candidate_tables_bytes"), 0);
  EXPECT_EQ(TrackedBytes::total("mem.whatif_memo_bytes"), 0);
  EXPECT_EQ(TrackedBytes::total("mem.envelope_cache_bytes"), 0);
}

TEST(Telemetry, HistogramStatsPercentiles) {
  obs::Histogram& h = obs::registry().histogram("test.stats_hist", 1.0, 1024.0);
  h.reset();
  for (int i = 0; i < 10; ++i) h.observe(2.0);
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.sum, 20.0);
  // Bucket-resolved: the reported quantile is the upper bound of the bucket
  // holding the crossing, so it brackets the true value to one bucket.
  EXPECT_GE(s.p50, 2.0);
  EXPECT_LT(s.p50, 2.0 * 1.5);
  EXPECT_EQ(s.p90, s.p50);
  EXPECT_EQ(s.max, s.p50);

  // counters_delta: histogram count/sum subtract like counters.
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  h.observe(512.0);
  h.observe(512.0);
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const obs::MetricsSnapshot delta = obs::counters_delta(before, after);
  ASSERT_TRUE(delta.histograms.count("test.stats_hist"));
  EXPECT_EQ(delta.histograms.at("test.stats_hist").count, 2u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("test.stats_hist").sum, 1024.0);
  EXPECT_GE(after.histograms.at("test.stats_hist").p90, 512.0);
}

TEST(Telemetry, PrometheusRoundTrip) {
  obs::registry().counter("test.prom.counter").add(3);
  obs::registry().gauge("test.prom.gauge").set(2.5);
  obs::Histogram& h = obs::registry().histogram("test.prom.hist", 1e-3, 10.0);
  h.reset();
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0);
  std::ostringstream out;
  obs::write_prometheus_text(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE tka_test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("tka_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tka_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("tka_test_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tka_test_prom_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("tka_test_prom_hist_count 3"), std::string::npos);

  // Exposition-format shape: every non-comment line is `name[{labels}] value`
  // and the histogram's cumulative bucket counts never decrease.
  std::istringstream lines(text);
  std::string line;
  double prev_bucket = -1.0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    const std::string value = line.substr(space + 1);
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparsable sample value in: " << line;
    if (line.compare(0, 26, "tka_test_prom_hist_bucket{") == 0) {
      const double n = std::strtod(value.c_str(), nullptr);
      EXPECT_GE(n, prev_bucket) << "non-cumulative buckets: " << line;
      prev_bucket = n;
    }
  }
  EXPECT_EQ(prev_bucket, 3.0);  // +Inf bucket saw every observation
}

TEST(Telemetry, SnapshotLineIsValidJson) {
  obs::registry().counter("test.jsonl.counter").add(7);
  obs::registry().histogram("test.jsonl.hist", 1.0, 100.0).observe(4.0);
  std::ostringstream out;
  obs::write_snapshot_line(out);
  const std::string line = out.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record, one line
  const json::Value v = parse_or_fail(line);
  EXPECT_GE(v.number_or("t_s", -1.0), 0.0);
  EXPECT_GT(v.number_or("rss_bytes", 0.0), 0.0);
  const json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("test.jsonl.counter", 0.0), 7.0);
  const json::Value* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* hist = hists->find("test.jsonl.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->number_or("count", 0.0), 1.0);
  EXPECT_GE(hist->number_or("p90", 0.0), 4.0);
}

TEST(Telemetry, MetricsFileSinkWritesParsableRecords) {
  const std::string path = "test_obs_telemetry_metrics.jsonl";
  {
    obs::MetricsFileSink sink(path, 10);
    ASSERT_TRUE(sink.ok());
    sleep_ms(50);
    sink.stop();
    EXPECT_GE(sink.records(), 3u);  // initial + periodic + final
  }
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  std::size_t records = 0;
  double prev_t = -1.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const json::Value v = parse_or_fail(line);
    const double t = v.number_or("t_s", -1.0);
    EXPECT_GE(t, prev_t);  // snapshots are time-ordered
    prev_t = t;
    ++records;
  }
  EXPECT_GE(records, 3u);
  std::remove(path.c_str());
}

// TSan target: concurrent observe() against stats()/snapshot() readers must
// be race-free, and once writers join, the totals are exact.
TEST(Telemetry, ConcurrentObserveAndSnapshot) {
  obs::Histogram& h =
      obs::registry().histogram("test.concurrent_hist", 1e-6, 100.0);
  h.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::atomic<bool> done{false};
  std::thread reader([&]() {
    while (!done.load(std::memory_order_relaxed)) {
      const obs::HistogramStats s = h.stats();
      EXPECT_LE(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
      (void)obs::registry().snapshot();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(1e-4 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.stats().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#else  // !TKA_OBS_ENABLED — the whole surface must be a benign no-op.

TEST(TelemetryDisabled, LaneSnapshotEmpty) {
  runtime::parallel_for(
      2, 0, 8, [](std::size_t) { sleep_ms(1); }, /*grain=*/1);
  EXPECT_TRUE(runtime::lane_snapshot().empty());
  EXPECT_TRUE(runtime::lane_delta({}, {}).empty());
  runtime::publish_runtime_metrics();  // must not crash
}

TEST(TelemetryDisabled, SnapshotAndTrackingAreEmpty) {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  obs::TrackedBytes tb("test.disabled_bytes");
  tb.add(1234);
  EXPECT_EQ(tb.held(), 0);
  EXPECT_EQ(obs::TrackedBytes::total("test.disabled_bytes"), 0);
  obs::RssSampler sampler(5);
  sampler.stop();
  EXPECT_EQ(sampler.samples(), 0u);
}

TEST(TelemetryDisabled, RssReadersStayLive) {
  // The raw readers are deliberately outside the compile-out so the bench
  // harness can always record memory.
  EXPECT_GT(obs::current_rss_bytes(), 0u);
  EXPECT_GE(obs::peak_rss_bytes(), obs::current_rss_bytes() / 2);
}

TEST(TelemetryDisabled, SinksEmitValidEmptyDocuments) {
  std::ostringstream prom;
  obs::write_prometheus_text(prom);
  EXPECT_FALSE(prom.str().empty());
  EXPECT_EQ(prom.str()[0], '#');  // comment-only exposition

  std::ostringstream snap;
  obs::write_snapshot_line(snap);
  const json::Value v = parse_or_fail(snap.str());
  EXPECT_GE(v.number_or("t_s", -1.0), 0.0);
  const json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_TRUE(counters->object.empty());

  const std::string path = "test_obs_telemetry_disabled.jsonl";
  {
    obs::MetricsFileSink sink(path, 10);
    EXPECT_TRUE(sink.ok());
    sink.stop();
    EXPECT_EQ(sink.records(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  parse_or_fail(line);
  std::remove(path.c_str());
}

#endif  // TKA_OBS_ENABLED

}  // namespace
}  // namespace tka
