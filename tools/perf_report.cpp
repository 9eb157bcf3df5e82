// perf_report: offline analysis over the telemetry artifacts the bench
// harness and the tka CLI emit (docs/OBSERVABILITY.md).
//
//   perf_report [--bench BENCH_<suite>.json] [--metrics METRICS.json]
//               [--jsonl SNAPSHOTS.jsonl] [--trace TRACE.json]
//               [--wait-threshold PCT] [--top N]
//
// Sections (each input is optional; at least one is required):
//   --bench    per-case parallel efficiency from the recorded lane usage:
//              utilization per lane, pooled wait share, peak RSS. Waiting
//              counts barrier-wait, queue-idle, AND the exec stall
//              (exec_s - exec_cpu_s: wall the thread spent runnable but
//              preempted), so an oversubscribed host cannot hide
//              contention inside stretched exec segments. Cases whose
//              wait share meets --wait-threshold (default 40%) are
//              flagged — the "threads without cores" pathology
//              parallel_scaling exhibits on small hosts. A healthy host
//              runs near 0%.
//   --metrics  tka --metrics / TKA_BENCH_METRICS document: top spans by
//              self time (the per-stage critical path) and the runtime.*
//              wait-site gauges.
//   --jsonl    --metrics-out snapshot stream: record count, time span, RSS
//              timeline min/peak/final.
//   --trace    Chrome trace-event JSON (--trace / TKA_BENCH_TRACE): per-tid
//              busy time from merged span intervals vs the trace's span.
//
// Exit codes: 0 = report printed, 2 = usage error or unreadable input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"

namespace {

using tka::bench::json::Value;

[[noreturn]] void usage(int exit_code) {
  std::fprintf(exit_code == 0 ? stdout : stderr,
               "usage: perf_report [--bench BENCH.json] [--metrics M.json]\n"
               "                   [--jsonl SNAPSHOTS.jsonl] [--trace T.json]\n"
               "                   [--wait-threshold PCT]  flag threshold, "
               "default 40\n"
               "                   [--top N]               rows per ranking, "
               "default 10\n"
               "at least one input file is required\n");
  std::exit(exit_code);
}

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "perf_report: %s\n", msg.c_str());
  std::exit(2);
}

Value load_json(const std::string& path) {
  Value doc;
  std::string error;
  if (!tka::bench::json::parse_file(path, &doc, &error)) fail(error);
  return doc;
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---------------------------------------------------------------- bench ---

void report_bench(const std::string& path, double wait_threshold_pct) {
  const Value doc = load_json(path);
  const Value* suite = doc.find("suite");
  const Value* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    fail(path + ": no benchmarks array (not a BENCH_*.json?)");
  }
  std::printf("=== bench: %s (suite %s, threads %g) ===\n", path.c_str(),
              suite != nullptr && suite->is_string() ? suite->string.c_str()
                                                     : "?",
              doc.find("config") != nullptr
                  ? doc.find("config")->number_or("threads", 0.0)
                  : 0.0);
  // Older BENCH files (earlier schema revisions of version 1) predate the
  // memory, lanes and telemetry sections; each is reported when present and
  // skipped — never an error — when absent.
  bool any_lanes = false;
  bool any_memory = false;
  for (const Value& b : benchmarks->array) {
    const Value* name = b.find("name");
    const std::string label =
        name != nullptr && name->is_string() ? name->string : "?";
    const double median =
        b.find("time_s") != nullptr ? b.find("time_s")->number_or("median", 0.0)
                                    : 0.0;
    std::printf("%-24s median %8.3fs", label.c_str(), median);
    const Value* memory = b.find("memory");
    if (memory != nullptr && memory->is_object()) {
      any_memory = true;
      std::printf("  peak rss %7.1f MiB",
                  mib(memory->number_or("peak_rss_bytes", 0.0)));
    }
    std::printf("\n");
    const Value* telemetry = b.find("telemetry");
    if (telemetry != nullptr && telemetry->is_object() &&
        !telemetry->object.empty()) {
      std::printf("    telemetry:");
      for (const auto& [key, tv] : telemetry->object) {
        if (tv.is_number()) std::printf(" %s=%.4g", key.c_str(), tv.number);
      }
      std::printf("\n");
    }
    const Value* lanes = b.find("lanes");
    if (lanes == nullptr || !lanes->is_array() || lanes->array.empty()) {
      continue;
    }
    any_lanes = true;
    double cpu = 0.0, wait = 0.0, wall = 0.0, max_wall = 0.0;
    for (const Value& lane : lanes->array) {
      const double lexec = lane.number_or("exec_s", 0.0);
      // Pre-CPU-telemetry records lack exec_cpu_s; treating cpu == exec
      // keeps their stall at zero instead of reading exec as all-stall.
      const double lcpu = lane.number_or("exec_cpu_s", lexec);
      // Stall: exec wall the thread spent runnable-but-preempted. Waiting
      // in every form — parked on the queue, blocked at a barrier, or
      // descheduled mid-chunk — counts against the case.
      const double lstall = lexec > lcpu ? lexec - lcpu : 0.0;
      const double lwait = lane.number_or("barrier_wait_s", 0.0) +
                           lane.number_or("queue_idle_s", 0.0) + lstall;
      const double lwall = lane.number_or("wall_s", 0.0);
      cpu += lcpu;
      wait += lwait;
      wall += lwall;
      max_wall = std::max(max_wall, lwall);
      // Pre-task-graph records lack "steals"; default 0 like exec_cpu_s.
      std::printf("    lane %2.0f (%s)  util %3.0f%%  exec %7.3fs  "
                  "cpu %7.3fs  barrier %7.3fs  idle %7.3fs  tasks %.0f  "
                  "steals %.0f\n",
                  lane.number_or("lane", 0.0),
                  lane.find("worker") != nullptr && lane.find("worker")->boolean
                      ? "worker"
                      : "caller",
                  100.0 * lane.number_or("utilization", 0.0), lexec, lcpu,
                  lane.number_or("barrier_wait_s", 0.0),
                  lane.number_or("queue_idle_s", 0.0),
                  lane.number_or("tasks", 0.0),
                  lane.number_or("steals", 0.0));
    }
    const std::size_t n = lanes->array.size();
    // Efficiency over CPU actually burned: stretched-but-preempted exec
    // does not count as parallel progress.
    const double efficiency =
        max_wall > 0.0 ? cpu / (static_cast<double>(n) * max_wall) : 0.0;
    const double wait_share = wall > 0.0 ? 100.0 * wait / wall : 0.0;
    std::printf("    parallel efficiency %.0f%% over %zu lane(s); wait share "
                "%.0f%% of %.3f lane-seconds%s\n",
                100.0 * efficiency, n, wait_share, wall,
                wait_share >= wait_threshold_pct
                    ? "  << FLAT SCALING: lanes mostly waiting, add cores or "
                      "drop threads"
                    : "");
  }
  if (!any_memory) {
    std::printf("(no memory records — BENCH file predates the memory "
                "section)\n");
  }
  if (!any_lanes) {
    std::printf("(no lane records — no case ran tasks on the runtime, or "
                "the BENCH file predates the lanes section)\n");
  }

  // Serving section: cases that carry service telemetry (the serve_load
  // suite). Splits a request's life into queue wait vs execution and shows
  // what the snapshot chain costs vs shares. Pre-snapshot BENCH files lack
  // the split/snapshot keys and get "-" columns; files with no service
  // telemetry at all simply don't get the section.
  bool serving_header = false;
  for (const Value& b : benchmarks->array) {
    const Value* telemetry = b.find("telemetry");
    if (telemetry == nullptr || !telemetry->is_object() ||
        telemetry->find("qps") == nullptr) {
      continue;
    }
    if (!serving_header) {
      serving_header = true;
      std::printf("serving:\n");
      std::printf("  %-16s %10s %9s %9s %11s %10s %12s\n", "case", "qps",
                  "p50(ms)", "p99(ms)", "qwait50(ms)", "exec50(ms)",
                  "shared(KiB)");
    }
    const Value* name = b.find("name");
    const bool has_split = telemetry->find("queue_wait_p50_ms") != nullptr;
    const bool has_snap = telemetry->find("snapshot_bytes_shared") != nullptr;
    std::printf("  %-16s %10.1f %9.3f %9.3f",
                name != nullptr && name->is_string() ? name->string.c_str()
                                                     : "?",
                telemetry->number_or("qps", 0.0),
                telemetry->number_or("p50_ms", 0.0),
                telemetry->number_or("p99_ms", 0.0));
    if (has_split) {
      std::printf(" %11.4f %10.4f",
                  telemetry->number_or("queue_wait_p50_ms", 0.0),
                  telemetry->number_or("exec_p50_ms", 0.0));
    } else {
      std::printf(" %11s %10s", "-", "-");
    }
    if (has_snap) {
      std::printf(" %12.1f",
                  telemetry->number_or("snapshot_bytes_shared", 0.0) / 1024.0);
    } else {
      std::printf(" %12s", "-");
    }
    std::printf("\n");
  }
  std::printf("\n");
}

// -------------------------------------------------------------- metrics ---

void report_metrics(const std::string& path, int top) {
  const Value doc = load_json(path);
  std::printf("=== metrics: %s ===\n", path.c_str());

  const Value* spans = doc.find("spans");
  if (spans != nullptr && spans->is_array() && !spans->array.empty()) {
    // Self time ranks the stages of the pipeline by where wall-clock
    // actually went — the per-stage critical path.
    std::vector<const Value*> rows;
    rows.reserve(spans->array.size());
    for (const Value& s : spans->array) rows.push_back(&s);
    std::stable_sort(rows.begin(), rows.end(), [](const Value* a, const Value* b) {
      return a->number_or("self_s", 0.0) > b->number_or("self_s", 0.0);
    });
    std::printf("top spans by self time:\n");
    std::printf("  %-52s %8s %10s %10s\n", "path", "count", "self", "total");
    const std::size_t limit =
        std::min(rows.size(), static_cast<std::size_t>(top));
    for (std::size_t i = 0; i < limit; ++i) {
      const Value* n = rows[i]->find("path");
      std::printf("  %-52s %8.0f %9.4fs %9.4fs\n",
                  n != nullptr && n->is_string() ? n->string.c_str() : "?",
                  rows[i]->number_or("count", 0.0),
                  rows[i]->number_or("self_s", 0.0),
                  rows[i]->number_or("total_s", 0.0));
    }
  } else {
    std::printf("(no span records — run with --trace/--metrics enabled)\n");
  }

  const Value* gauges = doc.find("gauges");
  if (gauges != nullptr && gauges->is_object()) {
    const double exec = gauges->number_or("runtime.exec_s", 0.0);
    const double barrier = gauges->number_or("runtime.barrier_wait_s", 0.0);
    const double idle = gauges->number_or("runtime.queue_idle_s", 0.0);
    const double busy_total = exec + barrier + idle;
    if (busy_total > 0.0) {
      std::printf("wait sites (process lifetime, all lanes):\n");
      std::printf("  executing    %9.4fs (%.0f%%)\n", exec,
                  100.0 * exec / busy_total);
      std::printf("  barrier-wait %9.4fs (%.0f%%)\n", barrier,
                  100.0 * barrier / busy_total);
      std::printf("  queue-idle   %9.4fs (%.0f%%)\n", idle,
                  100.0 * idle / busy_total);
    }
    const double rss_peak = gauges->number_or("mem.rss_peak_bytes", 0.0);
    if (rss_peak > 0.0) {
      std::printf("memory: rss %.1f MiB, peak %.1f MiB, envelope cache %.2f "
                  "MiB, candidate tables %.2f MiB, what-if memo %.2f MiB\n",
                  mib(gauges->number_or("mem.rss_bytes", 0.0)), mib(rss_peak),
                  mib(gauges->number_or("mem.envelope_cache_bytes", 0.0)),
                  mib(gauges->number_or("mem.candidate_tables_bytes", 0.0)),
                  mib(gauges->number_or("mem.whatif_memo_bytes", 0.0)));
    }
  }
  std::printf("\n");
}

// ---------------------------------------------------------------- jsonl ---

void report_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path + ": cannot open");
  std::printf("=== snapshots: %s ===\n", path.c_str());
  std::string line;
  std::size_t records = 0;
  double t_first = 0.0, t_last = 0.0;
  double rss_min = 0.0, rss_max = 0.0, rss_final = 0.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Value rec;
    std::string error;
    if (!tka::bench::json::parse(line, &rec, &error)) {
      fail(path + ": bad JSONL record: " + error);
    }
    const double t = rec.number_or("t_s", 0.0);
    const double rss = rec.number_or("rss_bytes", 0.0);
    if (records == 0) {
      t_first = t;
      rss_min = rss_max = rss;
    }
    t_last = t;
    rss_final = rss;
    rss_min = std::min(rss_min, rss);
    rss_max = std::max(rss_max, rss);
    ++records;
  }
  if (records == 0) fail(path + ": no snapshot records");
  std::printf("%zu records over %.3fs; rss min %.1f MiB, peak %.1f MiB, "
              "final %.1f MiB\n",
              records, t_last - t_first, mib(rss_min), mib(rss_max),
              mib(rss_final));
  std::printf("\n");
}

// ---------------------------------------------------------------- trace ---

void report_trace(const std::string& path, int top) {
  const Value doc = load_json(path);
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail(path + ": no traceEvents array (not a Chrome trace?)");
  }
  std::printf("=== trace: %s ===\n", path.c_str());
  struct Lane {
    std::vector<std::pair<double, double>> intervals;  // [start, end) in us
  };
  std::map<int, Lane> lanes;
  std::map<std::string, double> by_name;  // total us per span name
  for (const Value& ev : events->array) {
    const Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string != "X") continue;
    const double ts = ev.number_or("ts", 0.0);
    const double dur = ev.number_or("dur", 0.0);
    const int tid = static_cast<int>(ev.number_or("tid", 0.0));
    lanes[tid].intervals.emplace_back(ts, ts + dur);
    const Value* n = ev.find("name");
    if (n != nullptr && n->is_string()) by_name[n->string] += dur;
  }
  if (lanes.empty()) fail(path + ": no complete spans in trace");
  double span_begin = 0.0, span_end = 0.0;
  bool have_span = false;
  for (auto& [tid, lane] : lanes) {
    for (const auto& [s, e] : lane.intervals) {
      if (!have_span) {
        span_begin = s;
        span_end = e;
        have_span = true;
      }
      span_begin = std::min(span_begin, s);
      span_end = std::max(span_end, e);
    }
  }
  const double span_us = span_end - span_begin;
  std::printf("per-thread busy time (merged spans over %.3fs trace):\n",
              span_us * 1e-6);
  for (auto& [tid, lane] : lanes) {
    // Nested spans overlap on one tid; merging the intervals yields the
    // time the thread was inside *any* span (= busy).
    std::sort(lane.intervals.begin(), lane.intervals.end());
    double busy = 0.0, cur_s = 0.0, cur_e = -1.0;
    for (const auto& [s, e] : lane.intervals) {
      if (e <= cur_e) continue;
      if (s > cur_e) {
        if (cur_e > cur_s) busy += cur_e - cur_s;
        cur_s = s;
      }
      cur_e = e;
    }
    if (cur_e > cur_s) busy += cur_e - cur_s;
    std::printf("  tid %2d: busy %8.3fs (%3.0f%% of trace span), %zu spans\n",
                tid, busy * 1e-6, span_us > 0.0 ? 100.0 * busy / span_us : 0.0,
                lane.intervals.size());
  }
  std::vector<std::pair<std::string, double>> ranked(by_name.begin(),
                                                     by_name.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("top span names by total time:\n");
  const std::size_t limit =
      std::min(ranked.size(), static_cast<std::size_t>(top));
  for (std::size_t i = 0; i < limit; ++i) {
    std::printf("  %-52s %9.4fs\n", ranked[i].first.c_str(),
                ranked[i].second * 1e-6);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_path, metrics_path, jsonl_path, trace_path;
  double wait_threshold_pct = 40.0;
  int top = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--bench") {
      bench_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--jsonl") {
      jsonl_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--wait-threshold") {
      wait_threshold_pct = std::atof(next());
    } else if (arg == "--top") {
      top = std::atoi(next());
      if (top <= 0) usage(2);
    } else {
      usage(2);
    }
  }
  if (bench_path.empty() && metrics_path.empty() && jsonl_path.empty() &&
      trace_path.empty()) {
    usage(2);
  }
  if (!bench_path.empty()) report_bench(bench_path, wait_threshold_pct);
  if (!metrics_path.empty()) report_metrics(metrics_path, top);
  if (!jsonl_path.empty()) report_jsonl(jsonl_path);
  if (!trace_path.empty()) report_trace(trace_path, top);
  return 0;
}
