#include "harness/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/signal_flush.hpp"
#include "runtime/runtime.hpp"
#include "runtime/telemetry.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"
#include "wave/point_store.hpp"

namespace tka::bench {
namespace {

using util::json::escape;

// The live harness, for active_scale(). A bench binary constructs exactly
// one Harness at the top of main, so plain globals suffice.
const Harness* g_active = nullptr;

[[noreturn]] void usage(const std::string& suite, int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: %s [options]\n"
      "  --smoke          smoke tier (scale 0, 1 rep, no warmup)\n"
      "  --scale N        bench scale 0|1|2 (default: TKA_BENCH_SCALE or 1)\n"
      "  --reps N         timed repetitions per case (default 3)\n"
      "  --warmup N       untimed warmup runs per case (default 1)\n"
      "  --threads N      worker threads (default: TKA_THREADS or hardware)\n"
      "  --out FILE       JSON result path (default BENCH_%s.json)\n"
      "  --filter SUBSTR  only run cases whose name contains SUBSTR\n"
      "  --list           print case names, run nothing\n"
      "  --metrics-out FILE    periodic JSONL metric snapshots\n"
      "  --metrics-interval MS snapshot period (default 500)\n"
      "  --help           this text\n",
      suite.c_str(), suite.c_str());
  std::exit(exit_code);
}

int env_scale() {
  const char* env = std::getenv("TKA_BENCH_SCALE");
  if (env == nullptr) return 1;
  const int s = std::atoi(env);
  return s < 0 ? 0 : (s > 2 ? 2 : s);
}

bool parse_int(const char* s, int* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

std::string num(double v) { return str::format("%.9g", v); }

}  // namespace

void Reporter::value(std::string_view name, double v) {
  for (auto& [k, existing] : values_) {
    if (k == name) {
      existing = v;
      return;
    }
  }
  values_.emplace_back(std::string(name), v);
}

void Reporter::telemetry(std::string_view name, double v) {
  for (auto& [k, existing] : telemetry_) {
    if (k == name) {
      existing = v;
      return;
    }
  }
  telemetry_.emplace_back(std::string(name), v);
}

Harness::Harness(int argc, char* const* argv, std::string suite) {
  config_.suite = std::move(suite);
  config_.scale = env_scale();
  bool reps_given = false;
  bool warmup_given = false;
  bool scale_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        usage(config_.suite, 2);
      }
      return argv[++i];
    };
    int v = 0;
    if (arg == "--help" || arg == "-h") {
      usage(config_.suite, 0);
    } else if (arg == "--smoke") {
      config_.smoke = true;
    } else if (arg == "--scale") {
      if (!parse_int(next(), &v) || v < 0 || v > 2) usage(config_.suite, 2);
      config_.scale = v;
      scale_given = true;
    } else if (arg == "--reps") {
      if (!parse_int(next(), &v) || v < 1) usage(config_.suite, 2);
      config_.reps = v;
      reps_given = true;
    } else if (arg == "--warmup") {
      if (!parse_int(next(), &v) || v < 0) usage(config_.suite, 2);
      config_.warmup = v;
      warmup_given = true;
    } else if (arg == "--threads") {
      if (!parse_int(next(), &v) || v < 1) usage(config_.suite, 2);
      config_.threads = v;
    } else if (arg == "--out") {
      config_.out_path = next();
    } else if (arg == "--filter") {
      config_.filter = next();
    } else if (arg == "--list") {
      config_.list_only = true;
    } else if (arg == "--metrics-out") {
      config_.metrics_out = next();
    } else if (arg == "--metrics-interval") {
      if (!parse_int(next(), &v) || v < 1) usage(config_.suite, 2);
      config_.metrics_interval_ms = v;
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                   std::string(arg).c_str());
      usage(config_.suite, 2);
    }
  }

  if (config_.smoke) {
    if (!scale_given) config_.scale = 0;
    if (!reps_given) config_.reps = 1;
    if (!warmup_given) config_.warmup = 0;
  }
  if (config_.out_path.empty()) {
    config_.out_path = "BENCH_" + config_.suite + ".json";
  }
  if (config_.threads > 0) {
    // Export so every layer (engine sweeps, fixpoints, bench evaluations)
    // resolves the same count without threading an option everywhere.
    setenv("TKA_THREADS", str::format("%d", config_.threads).c_str(), 1);
  }

  if (const char* lvl = std::getenv("TKA_LOG")) {
    log::Level level;
    if (log::parse_level(lvl, &level)) log::set_level(level);
  }
  // Counters are always captured (cheap relaxed atomics); the span tracer
  // only runs when a trace/metrics dump was requested.
  obs::register_core_metrics();
  if (std::getenv("TKA_BENCH_TRACE") != nullptr ||
      std::getenv("TKA_BENCH_METRICS") != nullptr) {
    obs::tracer().enable(true);
  }
  if (!config_.metrics_out.empty() && !config_.list_only) {
    metrics_sink_ = std::make_unique<obs::MetricsFileSink>(
        config_.metrics_out, config_.metrics_interval_ms);
    if (!metrics_sink_->ok()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   config_.metrics_out.c_str());
      std::exit(2);
    }
  }
  // A Ctrl-C mid-suite still flushes the JSONL sink's final record and the
  // trace/metrics dumps — partial observability beats none on a run that
  // took minutes to get where it was.
  if (metrics_sink_ != nullptr || obs::tracer().enabled()) {
    obs::install_signal_flush();
    obs::add_flush_hook([this] {
      if (metrics_sink_) metrics_sink_->stop();
      if (const char* path = std::getenv("TKA_BENCH_TRACE")) {
        std::ofstream tout(path);
        if (tout) obs::tracer().write_chrome_json(tout);
      }
      if (const char* path = std::getenv("TKA_BENCH_METRICS")) {
        std::ofstream mout(path);
        if (mout) {
          obs::run_collectors();
          obs::write_metrics_json(mout);
        }
      }
    });
  }
  g_active = this;
}

int Harness::threads() const { return runtime::resolve_threads(config_.threads); }

bool Harness::run_case(const std::string& name,
                       const std::function<void(Reporter&)>& fn) {
  if (!config_.filter.empty() && name.find(config_.filter) == std::string::npos) {
    return false;
  }
  if (config_.list_only) {
    listed_.push_back(name);
    std::printf("%s\n", name.c_str());
    return false;
  }

  CaseResult result;
  result.name = name;
  for (int w = 0; w < config_.warmup; ++w) {
    Reporter scratch;
    fn(scratch);
  }
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(config_.reps));
  Reporter reporter;
  for (int r = 0; r < config_.reps; ++r) {
    const obs::MetricsSnapshot before = obs::registry().snapshot();
    const std::vector<runtime::LaneCounters> lanes_before =
        runtime::lane_snapshot();
    Timer t;
    {
      // Book the whole timed rep as exec on the calling lane so even
      // suites that never fan out (pure-serial kernels) report per-thread
      // utilization. Nested pool scopes still attribute exactly: a
      // parallel_for barrier inside the rep books barrier-wait, not exec
      // (LaneSlot::push credits the enclosing phase).
      runtime::telemetry::LaneSlot& lane =
          runtime::telemetry::this_lane(/*worker=*/false);
      runtime::telemetry::PhaseScope exec(lane,
                                          runtime::telemetry::Phase::kExec);
      lane.tasks.fetch_add(1, std::memory_order_relaxed);
      fn(reporter);
    }
    samples.push_back(t.seconds());
    const obs::MetricsSnapshot delta =
        obs::counters_delta(before, obs::registry().snapshot());
    // Keep the last rep's increments: with any warmup they are the
    // steady-state (caches hot) counts; zero-delta names are dropped.
    result.counters.clear();
    for (const auto& [cname, cdelta] : delta.counters) {
      if (cdelta > 0) result.counters.emplace(cname, cdelta);
    }
    // Per-thread attribution over the same rep. Lanes that did nothing
    // (threads of an earlier, larger pool; long-dead workers) are dropped.
    result.lanes.clear();
    const std::vector<runtime::LaneCounters> lane_d =
        runtime::lane_delta(lanes_before, runtime::lane_snapshot());
    for (std::size_t li = 0; li < lane_d.size(); ++li) {
      const runtime::LaneCounters& l = lane_d[li];
      if (l.exec_ns + l.queue_idle_ns + l.barrier_wait_ns == 0) continue;
      LaneUsage u;
      u.lane = static_cast<int>(li);
      u.worker = l.worker;
      u.exec_s = obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_ns));
      u.exec_cpu_s =
          obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_cpu_ns));
      u.queue_idle_s =
          obs::ns_to_seconds(static_cast<std::int64_t>(l.queue_idle_ns));
      u.barrier_wait_s =
          obs::ns_to_seconds(static_cast<std::int64_t>(l.barrier_wait_ns));
      u.wall_s = obs::ns_to_seconds(static_cast<std::int64_t>(l.wall_ns));
      u.utilization = u.wall_s > 0.0 ? u.exec_s / u.wall_s : 0.0;
      u.tasks = l.tasks;
      u.steals = l.steals;
      result.lanes.push_back(u);
    }
  }
  // Plain /proc reads; VmHWM is the kernel-maintained process peak.
  result.rss_bytes = obs::current_rss_bytes();
  result.peak_rss_bytes = obs::peak_rss_bytes();
  {
    const wave::pool::Stats pstats = wave::pool::stats();
    result.wave_pool_bytes = pstats.live_bytes + pstats.cached_bytes;
  }
  result.time = summarize_samples(std::move(samples));
  result.values = std::move(reporter.values_);
  result.telemetry = std::move(reporter.telemetry_);
  results_.push_back(std::move(result));
  return true;
}

std::string render_bench_json(const HarnessConfig& config,
                              const std::vector<CaseResult>& results) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << kBenchSchemaVersion << ",\n";
  out << "  \"suite\": \"" << escape(config.suite) << "\",\n";
  out << "  \"config\": {\n";
  out << "    \"smoke\": " << (config.smoke ? "true" : "false") << ",\n";
  out << "    \"scale\": " << config.scale << ",\n";
  out << "    \"reps\": " << config.reps << ",\n";
  out << "    \"warmup\": " << config.warmup << ",\n";
  out << "    \"threads\": " << runtime::resolve_threads(config.threads) << "\n";
  out << "  },\n";
  out << "  \"benchmarks\": [";
  bool first_case = true;
  for (const CaseResult& r : results) {
    out << (first_case ? "\n" : ",\n");
    first_case = false;
    out << "    {\n";
    out << "      \"name\": \"" << escape(r.name) << "\",\n";
    out << "      \"time_s\": {\"reps\": " << r.time.reps
        << ", \"median\": " << num(r.time.median) << ", \"p10\": "
        << num(r.time.p10) << ", \"p90\": " << num(r.time.p90)
        << ", \"min\": " << num(r.time.min) << ", \"max\": " << num(r.time.max)
        << ", \"mean\": " << num(r.time.mean) << "},\n";
    out << "      \"values\": {";
    bool first = true;
    for (const auto& [name, v] : r.values) {
      out << (first ? "" : ", ") << "\"" << escape(name) << "\": " << num(v);
      first = false;
    }
    out << "},\n      \"telemetry\": {";
    first = true;
    for (const auto& [name, v] : r.telemetry) {
      out << (first ? "" : ", ") << "\"" << escape(name) << "\": " << num(v);
      first = false;
    }
    out << "},\n      \"counters\": {";
    first = true;
    for (const auto& [name, v] : r.counters) {
      out << (first ? "" : ", ") << "\"" << escape(name) << "\": " << v;
      first = false;
    }
    out << "},\n      \"memory\": {\"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"rss_bytes\": " << r.rss_bytes
        << ", \"wave_pool_bytes\": " << r.wave_pool_bytes << "},\n";
    out << "      \"lanes\": [";
    first = true;
    for (const LaneUsage& l : r.lanes) {
      out << (first ? "" : ", ") << "{\"lane\": " << l.lane << ", \"worker\": "
          << (l.worker ? "true" : "false") << ", \"exec_s\": " << num(l.exec_s)
          << ", \"exec_cpu_s\": " << num(l.exec_cpu_s)
          << ", \"queue_idle_s\": " << num(l.queue_idle_s)
          << ", \"barrier_wait_s\": " << num(l.barrier_wait_s)
          << ", \"wall_s\": " << num(l.wall_s)
          << ", \"utilization\": " << num(l.utilization)
          << ", \"tasks\": " << l.tasks << ", \"steals\": " << l.steals
          << "}";
      first = false;
    }
    out << "]\n    }";
  }
  out << (first_case ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

int Harness::finish() {
  if (finished_) return 0;
  finished_ = true;
  g_active = nullptr;
  if (config_.list_only) return 0;

  std::printf("\n-- %s: %zu case%s, median over %d rep%s (threads=%d, "
              "scale=%d%s) --\n",
              config_.suite.c_str(), results_.size(),
              results_.size() == 1 ? "" : "s", config_.reps,
              config_.reps == 1 ? "" : "s", threads(), config_.scale,
              config_.smoke ? ", smoke" : "");
  for (const CaseResult& r : results_) {
    std::printf("  %-28s %10.4fs  [p10 %.4f, p90 %.4f]\n", r.name.c_str(),
                r.time.median, r.time.p10, r.time.p90);
  }
  if (!results_.empty() && results_.back().peak_rss_bytes > 0) {
    std::printf("  peak rss: %.1f MiB\n",
                static_cast<double>(results_.back().peak_rss_bytes) /
                    (1024.0 * 1024.0));
  }

  std::ofstream out(config_.out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", config_.out_path.c_str());
    return 1;
  }
  out << render_bench_json(config_, results_);
  out.close();
  std::fprintf(stderr, "wrote %s\n", config_.out_path.c_str());

  if (const char* path = std::getenv("TKA_BENCH_TRACE")) {
    std::ofstream tout(path);
    if (tout) {
      obs::tracer().write_chrome_json(tout);
      std::fprintf(stderr, "wrote trace %s\n", path);
    }
  }
  if (const char* path = std::getenv("TKA_BENCH_METRICS")) {
    std::ofstream mout(path);
    if (mout) {
      // Refresh derived gauges (runtime.*, mem.rss*) before the dump.
      obs::run_collectors();
      obs::write_metrics_json(mout);
      std::fprintf(stderr, "wrote metrics %s\n", path);
    }
  }
  if (metrics_sink_ != nullptr) {
    metrics_sink_->stop();  // writes the final JSONL record
    std::fprintf(stderr, "wrote metrics snapshots %s (%llu records)\n",
                 config_.metrics_out.c_str(),
                 static_cast<unsigned long long>(metrics_sink_->records()));
  }
  return 0;
}

int active_scale() {
  if (g_active != nullptr) return g_active->scale();
  return env_scale();
}

}  // namespace tka::bench
