// The benchmark harness: one object per bench binary (= one *suite*) that
// owns CLI parsing, the warmup/repetition loop, per-rep timing, metric
// counter capture, and the machine-readable BENCH_<suite>.json emission.
//
// Usage in a bench main:
//
//   int main(int argc, char** argv) {
//     bench::Harness h(argc, argv, "table2_addition");
//     for (const std::string& name : bench::suite_circuits()) {
//       Design d = build_design(name);          // setup, untimed
//       h.run_case(name, [&](bench::Reporter& r) {
//         ... timed work ...
//         r.value("delay_k5", delay);           // deterministic results
//       });
//       ... print the human-readable table row ...
//     }
//     return h.finish();                        // writes the JSON
//   }
//
// Common flags (every suite accepts them):
//   --smoke            smoke tier: scale 0, reps 1, warmup 0 (each still
//                      overridable by an explicit --scale/--reps/--warmup)
//   --scale N          0 quick / 1 default / 2 full (default: TKA_BENCH_SCALE)
//   --reps N           timed repetitions per case (default 3; smoke 1)
//   --warmup N         untimed warmup runs per case (default 1; smoke 0)
//   --threads N        worker threads (exports TKA_THREADS so every layer
//                      resolves the same count; 1 = exact serial)
//   --out FILE         result path (default BENCH_<suite>.json in the cwd)
//   --filter SUBSTR    only run cases whose name contains SUBSTR
//   --list             print case names without running them
//   --metrics-out FILE periodic JSONL metric snapshots (docs/OBSERVABILITY.md)
//   --metrics-interval MS
//                      snapshot period for --metrics-out (default 500)
// Environment: TKA_BENCH_SCALE, TKA_THREADS, TKA_LOG, TKA_BENCH_TRACE,
// TKA_BENCH_METRICS keep working exactly as before (flags win over env).
//
// The JSON schema is versioned (kBenchSchemaVersion) and documented
// field-by-field in docs/BENCHMARKING.md; tools/bench_compare diffs two
// such files and gates on regressions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/stats.hpp"
#include "obs/export.hpp"

namespace tka::bench {

/// Version of the BENCH_*.json layout. Bump on any incompatible change
/// and document the migration in docs/BENCHMARKING.md.
inline constexpr int kBenchSchemaVersion = 1;

/// Parsed harness configuration (CLI flags over environment defaults).
struct HarnessConfig {
  std::string suite;
  int scale = 1;
  bool smoke = false;
  int reps = 3;
  int warmup = 1;
  int threads = 0;  ///< 0 = TKA_THREADS / hardware; >0 explicit
  std::string out_path;
  std::string filter;
  bool list_only = false;
  std::string metrics_out;        ///< JSONL snapshot sink path ("" = off)
  int metrics_interval_ms = 500;  ///< snapshot period for metrics_out
};

/// Handed to the case body each repetition; collects named scalar results
/// (delays, set sizes, speedups...). Values land in the JSON and are
/// diffed by bench_compare with a tight threshold, so report only
/// deterministic quantities — never wall-clock readings (the harness
/// times the body itself).
class Reporter {
 public:
  /// Records `name` = `v` for the current case (last write wins, both
  /// within a rep and across reps).
  void value(std::string_view name, double v);

  /// Records a *nondeterministic* runtime observation (throughput, latency
  /// percentiles...) for the current case. Telemetry lands in its own JSON
  /// section and is reported by bench_compare as informational notes only —
  /// never a regression — so suites measuring service behavior (qps, p99)
  /// can record it without tripping the tight `values` gate.
  void telemetry(std::string_view name, double v);

 private:
  friend class Harness;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, double>> telemetry_;
};

/// One execution lane's activity during a case's last timed rep (from
/// runtime::lane_delta). `utilization` is exec_s / wall_s over the rep.
struct LaneUsage {
  int lane = 0;
  bool worker = false;
  double exec_s = 0.0;
  /// CPU time actually consumed during exec segments; exec_s - exec_cpu_s
  /// is the involuntary stall (runnable but preempted) — the signature of
  /// more threads than cores.
  double exec_cpu_s = 0.0;
  double queue_idle_s = 0.0;
  double barrier_wait_s = 0.0;
  double wall_s = 0.0;
  double utilization = 0.0;
  std::uint64_t tasks = 0;
  /// Task-graph tasks this lane stole from another lane's deque. Zero on
  /// inline work; informational (never gated — steal counts depend on
  /// thread count and timing).
  std::uint64_t steals = 0;
};

/// One case's outcome: timing summary over the reps, reported values, the
/// metric-counter increments observed during the last timed rep, plus
/// memory (RSS) readings and per-lane runtime attribution. `counters` and
/// `values` stay bit-identical across thread counts and obs configurations;
/// the memory and lane fields are environment-dependent telemetry and are
/// gated loosely (or skipped) by bench_compare.
struct CaseResult {
  std::string name;
  TimeStats time;
  std::vector<std::pair<std::string, double>> values;
  /// Nondeterministic observations (Reporter::telemetry); notes-only in
  /// bench_compare.
  std::vector<std::pair<std::string, double>> telemetry;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t peak_rss_bytes = 0;  ///< process VmHWM after the case
  std::uint64_t rss_bytes = 0;       ///< process VmRSS after the case
  std::vector<LaneUsage> lanes;
};

class Harness {
 public:
  /// Parses flags (printing usage and exiting on `--help` or bad input),
  /// applies TKA_LOG, arms the tracer when TKA_BENCH_TRACE/_METRICS are
  /// set, and exports `--threads` via TKA_THREADS.
  Harness(int argc, char* const* argv, std::string suite);

  const HarnessConfig& config() const { return config_; }

  /// Bench scale for sizing work (0/1/2). Free-standing bench::scale()
  /// (common.hpp) reports the same value once a Harness exists.
  int scale() const { return config_.scale; }

  /// The resolved worker count case bodies should pass to engine options
  /// (0 means "library default", which the harness already pinned via
  /// TKA_THREADS when --threads was given).
  int threads() const;

  /// Runs one case: `warmup` untimed runs, then `reps` timed runs with
  /// metric snapshots around each. Skipped silently when the name fails
  /// --filter; only recorded when --list is active. Returns true when the
  /// body actually ran (so callers know whether their captured locals
  /// hold results to print).
  bool run_case(const std::string& name, const std::function<void(Reporter&)>& fn);

  /// Completed case results so far (filter-passing, non-list runs only).
  const std::vector<CaseResult>& results() const { return results_; }

  /// Writes the JSON document (and any TKA_BENCH_TRACE/_METRICS files),
  /// prints the per-case summary, and returns the process exit code.
  int finish();

 private:
  HarnessConfig config_;
  std::vector<CaseResult> results_;
  std::vector<std::string> listed_;
  std::unique_ptr<obs::MetricsFileSink> metrics_sink_;  // --metrics-out
  bool finished_ = false;
};

/// Writes `results` as a schema-versioned BENCH JSON document. Exposed
/// separately so tests can exercise the writer without a Harness.
std::string render_bench_json(const HarnessConfig& config,
                              const std::vector<CaseResult>& results);

/// Currently-active scale: the live Harness's --scale/--smoke if one
/// exists, else TKA_BENCH_SCALE, else 1. Clamped to [0, 2].
int active_scale();

}  // namespace tka::bench
