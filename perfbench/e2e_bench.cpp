// e2e_bench — the measured program behind perfbench/run.py.
//
// One process runs one workload for a fixed wall-clock budget and prints a
// single JSON line of raw samples: per-query walls and CPU seconds, setup
// times, answer-check tallies and, with --trace 1, per-layer readings.
// run.py reduces them to the metrics named in BENCHMARK.json;
// perfbench/README.md says what each workload is for.
//
//   e2e_bench --workload enum_elim|fixpoint_add|serve_eco --seed N
//             --seconds S --trace 0|1
//
// Inputs are generated in memory from --seed before any timing starts.
// The benchmark adds no spans inside the library: its own spans (bench.*)
// wrap the calls into each layer, and everything else is read from what
// the library already exports — tracer summaries, metric registry deltas
// and runtime lane telemetry.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "obs/clock.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/telemetry.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "session/analysis_session.hpp"
#include "session/design_snapshot.hpp"
#include "sta/analyzer.hpp"
#include "topk/stages/baseline_stage.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

using namespace tka;

namespace {

constexpr int kEngineThreads = 4;
constexpr int kTopK = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------- output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  return str::format("%.17g", v);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + num(v[i]);
  }
  return out + "]";
}

std::string array(const std::vector<std::string>& objects) {
  std::string out = "[";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out += (i ? ", " : "") + objects[i];
  }
  return out + "]";
}

/// A JSON object built member by member, in insertion order.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  Obj& val(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Obj& list(const std::string& key, const std::vector<double>& v) {
    return raw(key, array(v));
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------- host and clocks

double process_cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_s() { return obs::ns_to_seconds(obs::now_ns()); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::string rest = line.substr(colon + 1);
        return std::string(str::trim(rest));
      }
    }
  }
  return "unknown";
}

std::string host_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Obj()
      .val("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("cpu_model", cpu_model())
      .str("compiler", compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .val("obs_enabled", TKA_OBS_ENABLED)
      .text();
}

/// Highest resident set size seen while it runs, sampled every few
/// milliseconds — the measured loop's own peak, unlike the process-lifetime
/// high-water mark, which input generation would dominate.
class PeakRss {
 public:
  PeakRss() : thread_([this] {
      while (!stop_.load()) {
        sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }) {}
  ~PeakRss() { stop(); }
  PeakRss(const PeakRss&) = delete;
  PeakRss& operator=(const PeakRss&) = delete;

  double stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      sample();
    }
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  void sample() { peak_ = std::max(peak_.load(), obs::current_rss_bytes()); }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread thread_;
};

// --------------------------------------------------------- layer probes

/// Registry and lane state at one instant; the difference of two is what
/// an interval did to every layer the library instruments.
struct Probe {
  obs::MetricsSnapshot reg;
  std::vector<runtime::LaneCounters> lanes;

  static Probe take() {
    return {obs::registry().snapshot(), runtime::lane_snapshot()};
  }
};

/// Span totals by leaf name (the last path component), summed over every
/// path and lane, accumulated across tracer drains.
using SpanTotals = std::map<std::string, double>;

void drain_spans(SpanTotals* totals) {
  for (const obs::SpanSummary& s : obs::tracer().summarize()) {
    const std::size_t slash = s.path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? s.path : s.path.substr(slash + 1);
    (*totals)[leaf] += s.total_s;
  }
  obs::tracer().clear();
}

double span(const SpanTotals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

/// Everything one traced interval exposes, flattened to raw readings that
/// run.py turns into the per-layer metrics.
Obj interval_layers(const Probe& before, const Probe& after,
                    const SpanTotals& spans) {
  const obs::MetricsSnapshot d = obs::counters_delta(before.reg, after.reg);
  auto counter = [&](const char* name) {
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  double exec = 0, cpu = 0, idle = 0, barrier = 0, tasks = 0, steals = 0;
  for (const runtime::LaneCounters& l :
       runtime::lane_delta(before.lanes, after.lanes)) {
    exec += obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_ns));
    cpu += obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_cpu_ns));
    idle += obs::ns_to_seconds(static_cast<std::int64_t>(l.queue_idle_ns));
    barrier += obs::ns_to_seconds(static_cast<std::int64_t>(l.barrier_wait_ns));
    tasks += static_cast<double>(l.tasks);
    steals += static_cast<double>(l.steals);
  }

  Obj o;
  for (const char* s :
       {"bench.query", "topk.run", "topk.whatif", "topk.stage.baseline",
        "topk.stage.sweep_graph", "topk.stage.candidate", "topk.stage.prune",
        "topk.stage.evaluate", "topk.victim", "noise.fixpoint",
        "noise.filter"}) {
    o.val(str::format("span.%s", s), span(spans, s));
  }
  o.val("lanes.exec_s", exec)
      .val("lanes.exec_cpu_s", cpu)
      .val("lanes.queue_idle_s", idle)
      .val("lanes.barrier_wait_s", barrier)
      .val("lanes.tasks", tasks)
      .val("lanes.steals", steals);
  for (const char* c :
       {"topk.sets_generated", "topk.surviving_sets", "topk.dominance_pruned",
        "topk.beam_capped", "dominance.exact_checks", "dominance.sig_rejects",
        "pwl.merge_points", "noise.filter_false_sides",
        "noise.envelope_cache_hits", "noise.envelope_cache_misses", "sta.runs",
        "topk.baseline_refresh_region", "topk.whatif_runs",
        "server.result_cache_hits", "server.result_cache_misses",
        "server.session_rebuilds", "server.session_rebases",
        "server.replayed_edits", "server.coalesced_reads"}) {
    o.val(str::format("counter.%s", c), counter(c));
  }
  for (const char* h : {"server.queue_wait_s", "server.latency.topk_s",
                        "server.latency.whatif_s"}) {
    const auto it = d.histograms.find(h);
    const bool seen = it != d.histograms.end();
    o.val(str::format("hist.%s.sum", h), seen ? it->second.sum : 0.0);
    o.val(str::format("hist.%s.count", h),
          seen ? static_cast<double>(it->second.count) : 0.0);
  }
  const auto shared = after.reg.gauges.find("server.snapshot_bytes_shared");
  o.val("gauge.server.snapshot_bytes_shared",
        shared == after.reg.gauges.end() ? 0.0 : shared->second);
  o.val("mem.envelope_cache_bytes",
        static_cast<double>(
            obs::TrackedBytes::total("mem.envelope_cache_bytes")));
  return o;
}

// ------------------------------------------------------- cold workloads

/// One generated design, plus an independent model/calculator pair used
/// only to re-check answers and for the standalone layer calls (never by
/// the timed queries, which build their own).
struct Circuit {
  std::uint64_t seed = 0;
  gen::GeneratedCircuit gen;
  std::unique_ptr<sta::DelayModel> model;
  std::unique_ptr<noise::AnalyticCouplingCalculator> calc;
  double noiseless_delay = 0.0;

  topk::stages::DesignRef ref() const {
    return {gen.netlist.get(), &gen.parasitics, model.get(), calc.get()};
  }
};

void bind_models(Circuit* c) {
  c->model = std::make_unique<sta::DelayModel>(*c->gen.netlist, c->gen.parasitics);
  c->calc = std::make_unique<noise::AnalyticCouplingCalculator>(
      c->gen.parasitics, *c->model);
  c->noiseless_delay =
      sta::run_sta(*c->gen.netlist, *c->model, c->gen.sta_options()).max_lat;
}

/// A generated circuit with one of the paper's size triples. The coupling
/// capture window widens with density, as the i1..i10 suite does.
std::unique_ptr<Circuit> make_circuit(int gates, std::size_t couplings,
                                      std::uint64_t seed) {
  gen::GeneratorParams p;
  p.name = str::format("gen%llu", static_cast<unsigned long long>(seed));
  p.num_gates = gates;
  p.target_couplings = couplings;
  p.seed = seed;
  p.threads = 1;  // circuits are generated concurrently instead
  const double density = static_cast<double>(couplings) / gates;
  if (density > 8.0) {
    p.extractor.max_coupling_dist = 16.0;
  } else if (density > 4.0) {
    p.extractor.max_coupling_dist = 12.0;
  }
  auto c = std::make_unique<Circuit>();
  c->seed = seed;
  c->gen = gen::generate_circuit(p);
  bind_models(c.get());
  return c;
}

struct ColdSpec {
  int gates;
  std::size_t couplings;
  topk::Mode mode;
  std::size_t beam_cap;
  std::size_t max_primary;
  double slack_frac;  // of the noiseless delay; infinity = no slack gate
  /// Circuits per run. Circuit difficulty varies a lot from seed to seed,
  /// so every run averages over a pool of circuits drawn from its seed —
  /// as many as one run can query, bounded by generation time.
  int circuits;
};

/// The engine presets of the small (i1-i5) and large (i6-i10) designs.
topk::TopkOptions cold_options(const ColdSpec& spec, const Circuit& c) {
  topk::TopkOptions opt;
  opt.k = kTopK;
  opt.mode = spec.mode;
  opt.threads = kEngineThreads;
  opt.iterative.sta = c.gen.sta_options();
  opt.beam_cap = spec.beam_cap;
  opt.max_primary_per_victim = spec.max_primary;
  opt.victim_slack_threshold = spec.slack_frac * c.noiseless_delay;
  opt.reevaluate = true;
  return opt;
}

/// The set-up a one-shot query pays: a session over private copies of the
/// generated design, with its own delay model and coupling calculator.
std::unique_ptr<session::AnalysisSession> fresh_session(const Circuit& c) {
  return std::make_unique<session::AnalysisSession>(
      net::Netlist(*c.gen.netlist), layout::Parasitics(c.gen.parasitics),
      sta::DelayModelOptions{},
      session::SessionOptions{.retain_candidates = false});
}

/// Standalone calls into the sta, noise and snapshot layers, each wrapped
/// in a bench span (traced runs only).
Obj standalone_layers(const Circuit& c, int fixpoint_threads, int reps) {
  std::vector<double> sta_s, fix_s, apply_ms;
  double iterations = 0;
  const sta::StaOptions sta_opt = c.gen.sta_options();
  for (int r = 0; r < reps; ++r) {
    obs::ScopedSpan s("bench.sta");
    const double t0 = wall_s();
    sta::run_sta(*c.gen.netlist, *c.model, sta_opt);
    sta_s.push_back(wall_s() - t0);
  }
  noise::IterativeOptions it;
  it.sta = sta_opt;
  it.threads = fixpoint_threads;
  const noise::CouplingMask all =
      noise::CouplingMask::all(c.gen.parasitics.num_couplings());
  for (int r = 0; r < reps; ++r) {
    obs::ScopedSpan s("bench.fixpoint");
    const double t0 = wall_s();
    const noise::NoiseReport rep = noise::analyze_iterative(
        *c.gen.netlist, c.gen.parasitics, *c.model, *c.calc, all, it);
    fix_s.push_back(wall_s() - t0);
    iterations = rep.iterations;
  }
  // Publishing one repair edit as a copy-on-write snapshot successor.
  const auto base = session::DesignSnapshot::make_base(
      net::Netlist(*c.gen.netlist), layout::Parasitics(c.gen.parasitics),
      sta::DelayModelOptions{});
  const std::size_t caps = c.gen.parasitics.num_couplings();
  for (int r = 0; r < 10 * reps; ++r) {
    session::WhatIfEdit edit;
    edit.shield_couplings = {static_cast<layout::CapId>((r * 7919) % caps)};
    obs::ScopedSpan s("bench.snapshot_apply");
    const double t0 = wall_s();
    const auto next = base->apply(edit);  // freed after the clock stops
    apply_ms.push_back((wall_s() - t0) * 1e3);
  }
  return Obj()
      .list("sta_run_s", sta_s)
      .list("fixpoint_s", fix_s)
      .val("fixpoint_iterations", iterations)
      .list("snapshot_apply_ms", apply_ms);
}

int run_cold(const Args& a, const ColdSpec& spec) {
  // ---- inputs (untimed): a pool of circuits from the seed, generated
  // concurrently, one generator per core.
  std::vector<std::unique_ptr<Circuit>> pool(spec.circuits);
  {
    std::vector<std::thread> gens;
    for (int t = 0; t < kEngineThreads; ++t) {
      gens.emplace_back([&, t] {
        for (int j = t; j < spec.circuits; j += kEngineThreads) {
          pool[j] = make_circuit(spec.gates, spec.couplings,
                                 a.seed * 64 + static_cast<std::uint64_t>(j));
        }
      });
    }
    for (std::thread& g : gens) g.join();
  }
  // Hand the generators' scratch memory back, so the measured loop starts
  // from the same heap whatever the generation left behind.
  malloc_trim(0);

  const bool addition = spec.mode == topk::Mode::kAddition;
  std::vector<double> setup_s;
  struct Expect {
    bool set = false;
    std::vector<layout::CapId> members;
    double delay = 0.0;
  };
  std::vector<Expect> expect(spec.circuits);
  std::vector<std::string> queries, noise;
  long attempted = 0, failed = 0;
  std::string first_error;

  // ---- the measured loop: round-robin over the pool until the budget is
  // spent, with at least one full round.
  PeakRss rss;
  const double start = wall_s();
  for (int q = 0; q < spec.circuits || wall_s() - start < a.seconds; ++q) {
    const int j = q % spec.circuits;
    const int round = q / spec.circuits;
    const Circuit& c = *pool[j];
    const topk::TopkOptions opt = cold_options(spec, c);
    // ---- setup: handing the circuit to a fresh session. One hand-off
    // takes about a microsecond, so each sample is the mean of a batch,
    // and samples are spread over the whole run.
    for (int r = 0; r < 4; ++r) {
      constexpr int kBatch = 25;
      const double t0 = wall_s();
      for (int b = 0; b < kBatch; ++b) fresh_session(c);
      setup_s.push_back((wall_s() - t0) / kBatch);
    }
    auto sess = fresh_session(c);

    // Traced runs alternate untraced and traced queries on each circuit,
    // so the tracing overhead is measured within one process.
    const bool traced = a.trace && (round + j) % 2 == 1;
    Probe before;
    if (traced) {
      obs::tracer().clear();
      before = Probe::take();
      obs::tracer().enable(true);
    }
    const double c0 = process_cpu_s();
    const double w0 = wall_s();
    topk::TopkResult res;
    {
      obs::ScopedSpan qs("bench.query");
      res = sess->run(opt);
    }
    const double w1 = wall_s();
    const double c1 = process_cpu_s();
    Obj rec;
    rec.val("circuit", j).val("traced", traced).val("wall_s", w1 - w0).val(
        "cpu_s", c1 - c0);
    if (traced) {
      obs::tracer().enable(false);
      const Probe after = Probe::take();
      SpanTotals spans;
      drain_spans(&spans);
      rec.raw("layers", interval_layers(before, after, spans)
                            .val("wall_s", w1 - w0)
                            .val("cpu_s", c1 - c0)
                            .text());
    }
    queries.push_back(rec.text());
    sess.reset();

    // ---- answer checks (untimed): an independent fixpoint on the returned
    // members must reproduce the evaluated delay, and every query on a
    // circuit must return the same set.
    ++attempted;
    noise::IterativeOptions check_it = opt.iterative;
    check_it.threads = 1;
    double recheck = 0.0;
    {
      obs::ScopedSpan cs("bench.check");
      recheck = topk::stages::BaselineStage::masked_delay(
          c.ref(), res.members, opt.mode, check_it);
    }
    Expect& e = expect[j];
    std::string error;
    if (res.members.empty()) {
      error = "empty top-k set";
    } else if (recheck != res.evaluated_delay) {
      error = str::format("evaluated delay %.17g, independent re-check %.17g",
                          res.evaluated_delay, recheck);
    } else if (!e.set) {
      e = {true, res.members, res.evaluated_delay};
      noise.push_back(Obj()
                          .str("mode", addition ? "addition" : "elimination")
                          .val("seed", static_cast<double>(c.seed))
                          .val("baseline", res.baseline_delay)
                          .val("reference", res.reference_delay)
                          .val("evaluated", res.evaluated_delay)
                          .text());
    } else if (res.members != e.members || res.evaluated_delay != e.delay) {
      error = "top-k set differs from the first query on this circuit";
    }
    if (!error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = error;
      std::fprintf(stderr, "e2e_bench: query %d (circuit %d) FAILED: %s\n", q,
                   j, error.c_str());
    }
  }
  const double loop_wall = wall_s() - start;
  const double peak = rss.stop();

  Obj out;
  out.str("workload", a.workload)
      .val("seed", static_cast<double>(a.seed))
      .raw("host", host_json())
      .raw("shape",
           Obj()
               .val("engine_threads", kEngineThreads)
               .val("shard_workers", 0)
               .val("client_connections", 0)
               .val("circuits", spec.circuits)
               .val("gates", spec.gates)
               .val("couplings", static_cast<double>(spec.couplings))
               .val("k", kTopK)
               .str("mode", addition ? "addition" : "elimination")
               .text())
      .val("attempted", static_cast<double>(attempted))
      .val("failed", static_cast<double>(failed))
      .str("first_error", first_error)
      .list("setup_s", setup_s)
      .raw("queries", array(queries))
      .raw("noise", array(noise))
      .val("loop_wall_s", loop_wall)
      .val("peak_rss_mib", peak);
  if (a.trace) {
    obs::tracer().enable(true);
    const Obj standalone = standalone_layers(*pool[0], kEngineThreads, 3);
    obs::tracer().enable(false);
    obs::tracer().clear();
    out.raw("standalone", standalone.text());
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ------------------------------------------------------------ serve_eco

/// A routing channel: `groups` independent regions of `chains` parallel
/// BUFX1 chains, `depth` gates deep. Neighboring chains of a group couple
/// at `coupled` evenly spaced stages with strengths varied by position,
/// and primary-input arrivals are staggered per chain. The channel is
/// fixed; the seed varies the traffic on it (repair order and read
/// schedule), which keeps every seed's workload equally heavy.
Circuit make_channel(int groups, int chains, int depth, int coupled) {
  Circuit ch;
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  ch.gen.netlist = std::make_unique<net::Netlist>(lib, "channel");
  net::Netlist& nl = *ch.gen.netlist;
  const std::size_t buf = lib.index_of("BUFX1");
  std::vector<std::vector<std::vector<net::NetId>>> nets(groups);
  for (int g = 0; g < groups; ++g) {
    nets[g].resize(chains);
    for (int c = 0; c < chains; ++c) {
      const std::string stem = str::format("g%dc%d", g, c);
      net::NetId cur = nl.add_primary_input(stem + "_in");
      for (int i = 0; i < depth; ++i) {
        cur = nl.add_gate(buf, {cur}, str::format("%s_g%d", stem.c_str(), i),
                          str::format("%s_n%d", stem.c_str(), i));
        nets[g][c].push_back(cur);
      }
      nl.mark_primary_output(cur);
    }
  }
  layout::Parasitics& par = ch.gen.parasitics;
  par = layout::Parasitics(nl.num_nets());
  for (net::NetId n = 0; n < nl.num_nets(); ++n) {
    par.add_ground_cap(n, 0.010);
    par.add_wire_res(n, 0.05);
  }
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c + 1 < chains; ++c) {
      for (int s = 0; s < coupled; ++s) {
        const int stage = 1 + s * (depth - 2) / std::max(coupled - 1, 1);
        par.add_coupling(nets[g][c][stage], nets[g][c + 1][stage],
                         0.003 + 0.0015 * ((g * 7 + c * 5 + stage) % 7));
      }
    }
  }
  ch.gen.arrivals.assign(nl.num_nets(), sta::InputArrival{});
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c < chains; ++c) {
      const double lat = 0.02 * ((g * 5 + c * 3) % 7);
      ch.gen.arrivals[nl.net_by_name(str::format("g%dc%d_in", g, c))] = {lat, lat};
    }
  }
  bind_models(&ch);
  return ch;
}

struct Pair {
  int k;
  topk::Mode mode;
};

// Readers cycle over four (k, mode) pairs; the committer uses the first.
const Pair kPairs[4] = {{4, topk::Mode::kElimination},
                        {8, topk::Mode::kElimination},
                        {4, topk::Mode::kAddition},
                        {6, topk::Mode::kAddition}};
constexpr int kCommitPair = 0;
constexpr int kReaders = 2;
/// Commits per episode. Each episode is a fresh server walked through the
/// same first kEpisodeCommits steps of the seeded repair order, so every
/// episode does the same work however fast the program runs.
constexpr std::size_t kEpisodeCommits = 64;

topk::TopkOptions channel_options(const Circuit& ch, const Pair& p) {
  topk::TopkOptions opt;
  opt.k = p.k;
  opt.mode = p.mode;
  opt.threads = 1;  // the serving contract: concurrency comes from workers
  opt.iterative.sta = ch.gen.sta_options();
  opt.beam_cap = 32;
  opt.reevaluate = true;
  return opt;
}

const char* mode_wire(topk::Mode m) {
  return m == topk::Mode::kAddition ? "add" : "elim";
}

/// Epoch stamp of a response ("\"epoch\": N"); -1 when absent.
long parse_epoch(const std::string& resp) {
  const std::string key = "\"epoch\": ";
  const std::size_t pos = resp.find(key);
  if (pos == std::string::npos) return -1;
  long v = -1;
  for (std::size_t i = pos + key.size();
       i < resp.size() && resp[i] >= '0' && resp[i] <= '9'; ++i) {
    v = (v < 0 ? 0 : v * 10) + (resp[i] - '0');
  }
  return v;
}

struct Reply {
  int pair = 0;
  std::uint64_t id = 0;
  long epoch = -1;
  double lat_s = 0.0;
  bool transport_ok = true;
  std::string resp;
};

/// One episode's replies, per connection.
struct Episode {
  std::vector<Reply> commits;
  std::vector<std::vector<Reply>> reads;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

/// One closed-loop episode on connected clients: the committer shields the
/// first kEpisodeCommits couplings of `order`, the readers walk their
/// seeded `schedule` of pairs from position (*next)[c] on, until the
/// committer is done or the deadline passes.
Episode closed_loop(server::Client* clients, double deadline,
                    const std::vector<layout::CapId>& order,
                    const std::vector<std::vector<int>>& schedule,
                    std::vector<std::size_t>* next) {
  Episode out;
  out.reads.resize(kReaders);
  std::atomic<bool> stop{false};
  const double c0 = process_cpu_s();
  const double t0 = wall_s();

  std::thread committer([&] {
    server::Client& cl = clients[kReaders];
    std::string err;
    const std::size_t n = std::min(kEpisodeCommits, order.size());
    for (std::size_t e = 0; e < n && wall_s() < deadline; ++e) {
      Reply r;
      r.pair = kCommitPair;
      r.id = 1000000 + e;
      const std::string req = str::format(
          "{\"id\": %llu, \"op\": \"what_if\", \"shield\": [%u], \"k\": %d, "
          "\"mode\": \"%s\"}",
          static_cast<unsigned long long>(r.id), static_cast<unsigned>(order[e]),
          kPairs[kCommitPair].k, mode_wire(kPairs[kCommitPair].mode));
      const double s0 = wall_s();
      r.transport_ok = cl.call(req, &r.resp, &err);
      r.lat_s = wall_s() - s0;
      if (!r.transport_ok) r.resp = err;
      r.epoch = parse_epoch(r.resp);
      const bool ok = r.transport_ok &&
                      r.resp.find("\"ok\": true") != std::string::npos;
      out.commits.push_back(std::move(r));
      if (!ok) break;  // the repair sequence cannot continue past a failure
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      std::vector<Reply>& mine = out.reads[c];
      std::string err;
      for (std::size_t& i = (*next)[c]; !stop.load(); ++i) {
        Reply r;
        r.pair = schedule[c][i % schedule[c].size()];
        r.id = static_cast<std::uint64_t>(c + 1) * 10000000 + i;
        const std::string req = str::format(
            "{\"id\": %llu, \"op\": \"topk\", \"k\": %d, \"mode\": \"%s\"}",
            static_cast<unsigned long long>(r.id), kPairs[r.pair].k,
            mode_wire(kPairs[r.pair].mode));
        const double s0 = wall_s();
        r.transport_ok = clients[c].call(req, &r.resp, &err);
        r.lat_s = wall_s() - s0;
        if (!r.transport_ok) r.resp = err;
        r.epoch = parse_epoch(r.resp);
        const bool alive = r.transport_ok;
        mine.push_back(std::move(r));
        if (!alive) break;
      }
    });
  }
  committer.join();
  for (std::thread& t : readers) t.join();
  out.wall_s = wall_s() - t0;
  out.cpu_s = process_cpu_s() - c0;
  return out;
}

/// The delays a served top-k answer reports.
struct Delays {
  double baseline, reference, evaluated;
};

/// Expected renders of one (k, mode) pair at `epochs` (sorted ascending)
/// from a local warm session walked along the repair order. The delays of
/// every answer go to *delays; single-edit steps are timed into *whatif_ms.
std::map<long, std::string> expected_chain(const Circuit& ch, const Pair& p,
                                           const std::vector<layout::CapId>& order,
                                           const std::vector<long>& epochs,
                                           std::vector<Delays>* delays,
                                           std::vector<double>* whatif_ms) {
  std::map<long, std::string> out;
  session::AnalysisSession s(net::Netlist(*ch.gen.netlist),
                             layout::Parasitics(ch.gen.parasitics),
                             sta::DelayModelOptions{},
                             session::SessionOptions{.retain_candidates = true});
  const topk::TopkResult first = s.run(channel_options(ch, p));
  out[0] = server::render_topk_result(s.netlist(), s.parasitics(), first, p.k);
  delays->push_back(
      {first.baseline_delay, first.reference_delay, first.evaluated_delay});
  long cur = 0;
  for (long e : epochs) {
    if (e <= cur) continue;
    session::WhatIfEdit edit;
    edit.shield_couplings.assign(order.begin() + cur, order.begin() + e);
    const double t0 = wall_s();
    topk::TopkResult res;
    {
      obs::ScopedSpan ws("bench.whatif");
      res = s.what_if(edit);
    }
    if (e == cur + 1) whatif_ms->push_back((wall_s() - t0) * 1e3);
    cur = e;
    out[e] = server::render_topk_result(s.netlist(), s.parasitics(), res, p.k);
    delays->push_back(
        {res.baseline_delay, res.reference_delay, res.evaluated_delay});
  }
  return out;
}

struct Verdict {
  long attempted = 0;
  long failed = 0;
  std::string first_error;
  std::vector<double> whatif_ms;
  std::vector<Delays> epoch0;  // per (k, mode) pair

  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// Checks every reply: each byte-identical to the local expected render at
/// its stamped epoch, each commit advancing the epoch by exactly one, and
/// no connection seeing its epoch go backwards. Error responses (overloads
/// included) and transport failures count as failures.
Verdict verify(const Circuit& ch, const std::vector<layout::CapId>& order,
               const std::vector<Episode>& episodes) {
  Verdict v;
  const long last_epoch = static_cast<long>(std::min(kEpisodeCommits, order.size()));
  std::vector<std::vector<long>> need(4);
  // The committer's pair chain is walked one edit at a time (its what_if
  // steps are the session layer's measured sample).
  for (long e = 1; e <= last_epoch; ++e) need[kCommitPair].push_back(e);
  for (const Episode& ep : episodes) {
    for (const auto& conn : ep.reads) {
      for (const Reply& r : conn) {
        if (r.epoch >= 0 && r.epoch <= last_epoch) need[r.pair].push_back(r.epoch);
      }
    }
  }
  for (auto& e : need) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
  }
  std::vector<std::map<long, std::string>> renders(4);
  std::vector<std::vector<double>> whatif(4);
  std::vector<std::vector<Delays>> delays(4);
  std::vector<std::thread> chains;
  for (int p = 0; p < 4; ++p) {
    chains.emplace_back([&, p] {
      renders[p] = expected_chain(ch, kPairs[p], order, need[p], &delays[p],
                                  &whatif[p]);
    });
  }
  for (std::thread& t : chains) t.join();
  v.whatif_ms = whatif[kCommitPair];
  for (const std::vector<Delays>& d : delays) v.epoch0.push_back(d.front());

  auto check = [&](const Reply& r, long min_epoch, long exact_epoch) {
    ++v.attempted;
    if (!r.transport_ok) return v.fail("transport failure: " + r.resp);
    if (r.resp.find("\"ok\": true") == std::string::npos) {
      return v.fail("error response: " + r.resp.substr(0, 200));
    }
    if (r.epoch < min_epoch || (exact_epoch >= 0 && r.epoch != exact_epoch)) {
      return v.fail(str::format("epoch %ld out of order (expected >= %ld)",
                                r.epoch, min_epoch));
    }
    const auto it = renders[r.pair].find(r.epoch);
    if (it == renders[r.pair].end() ||
        r.resp != server::make_ok_response(r.id,
                                           static_cast<std::uint64_t>(r.epoch),
                                           "\"result\": " + it->second)) {
      return v.fail(str::format("reply %llu differs from the expected render "
                                "at epoch %ld",
                                static_cast<unsigned long long>(r.id), r.epoch));
    }
  };
  for (const Episode& ep : episodes) {
    long expect = 0;
    for (const Reply& r : ep.commits) {
      ++expect;
      check(r, expect, expect);
    }
    for (const auto& conn : ep.reads) {
      long last = 0;
      for (const Reply& r : conn) {
        check(r, last, -1);
        last = std::max(last, r.epoch);
      }
    }
  }
  return v;
}

std::vector<double> latencies(const Episode& ep, bool commits) {
  std::vector<double> out;
  auto add = [&](const Reply& r) {
    if (r.transport_ok) out.push_back(r.lat_s);
  };
  if (commits) {
    for (const Reply& r : ep.commits) add(r);
  } else {
    for (const auto& conn : ep.reads) {
      for (const Reply& r : conn) add(r);
    }
  }
  return out;
}

int run_serve(const Args& a) {
  constexpr int kGroups = 24, kChains = 5, kDepth = 16, kCoupled = 4;
  const Circuit ch = make_channel(kGroups, kChains, kDepth, kCoupled);

  // Seeded repair order over every coupling, and a seeded rotation of the
  // four (k, mode) pairs per reader connection.
  Rng rng(a.seed, 0x5E7EULL);
  std::vector<layout::CapId> order(ch.gen.parasitics.num_couplings());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<layout::CapId>(i);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  // Each round of four reads visits every pair once, in a fresh seeded
  // order, so the mix of warm and cold worker sessions averages out over
  // a run instead of being fixed by one rotation.
  std::vector<std::vector<int>> schedule(kReaders);
  for (std::vector<int>& s : schedule) {
    for (int round = 0; round < 1024; ++round) {
      int perm[4] = {0, 1, 2, 3};
      for (int i = 3; i > 0; --i) std::swap(perm[i], perm[rng.next_below(i + 1)]);
      s.insert(s.end(), perm, perm + 4);
    }
  }
  std::vector<std::size_t> next_read(kReaders, 0);

  server::ShardOptions shard;
  shard.workers = 2;
  shard.queue_cap = 16;
  shard.query_threads = 1;
  // No rendered-result cache: with it, some episodes answered one
  // connection's reads almost entirely from the cache, and read latency
  // flipped between analysis time and a socket round trip from seed to
  // seed. Every read here measures analysis.
  shard.result_cache_cap = 0;
  server::ServerOptions srv_opt;
  srv_opt.tcp_port = 0;

  std::vector<double> setup_s;
  std::vector<Episode> episodes;
  std::vector<std::string> layers;
  PeakRss rss;
  const double start = wall_s();
  const double deadline = start + a.seconds;
  for (int n = 0; n == 0 || wall_s() < deadline; ++n) {
    // ---- setup: server construction, design registration, listener
    // start and the client connects.
    auto nl = std::make_unique<net::Netlist>(*ch.gen.netlist);
    layout::Parasitics par(ch.gen.parasitics);
    const double t0 = wall_s();
    server::Server srv(srv_opt);
    std::string err;
    if (!srv.add_design("channel", std::move(nl), std::move(par), shard,
                        channel_options(ch, kPairs[kCommitPair]), &err) ||
        !srv.start(&err)) {
      std::fprintf(stderr, "e2e_bench: server setup: %s\n", err.c_str());
      return 1;
    }
    server::Client clients[kReaders + 1];
    for (server::Client& cl : clients) {
      if (!cl.connect_tcp("127.0.0.1", srv.tcp_port(), &err)) {
        std::fprintf(stderr, "e2e_bench: connect: %s\n", err.c_str());
        return 1;
      }
    }
    setup_s.push_back(wall_s() - t0);

    // Traced runs alternate untraced and traced episodes. Shard workers
    // record spans for the whole traced episode; a drainer folds them
    // into totals every second so the buffers stay small.
    const bool traced = a.trace && n % 2 == 1;
    if (traced) {
      SpanTotals spans;
      std::atomic<bool> done{false};
      obs::tracer().clear();
      const Probe before = Probe::take();
      obs::tracer().enable(true);
      std::thread drainer([&] {
        while (!done.load()) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
          drain_spans(&spans);
        }
      });
      episodes.push_back(closed_loop(clients, deadline, order, schedule, &next_read));
      obs::tracer().enable(false);
      done.store(true);
      drainer.join();
      drain_spans(&spans);
      const Probe after = Probe::take();
      const Episode& ep = episodes.back();
      double lat_sum = 0.0, lat_n = 0.0;
      for (bool commits : {false, true}) {
        for (double s : latencies(ep, commits)) {
          lat_sum += s;
          lat_n += 1;
        }
      }
      layers.push_back(interval_layers(before, after, spans)
                           .val("wall_s", ep.wall_s)
                           .val("cpu_s", ep.cpu_s)
                           .val("client.latency_sum_s", lat_sum)
                           .val("client.requests", lat_n)
                           .text());
    } else {
      episodes.push_back(closed_loop(clients, deadline, order, schedule, &next_read));
    }
    episodes.back().traced = traced;
    for (server::Client& cl : clients) cl.close();
    srv.request_shutdown();
    srv.wait();
    malloc_trim(0);  // every episode starts from the same heap
  }
  const double peak = rss.stop();

  // ---- answer checks (untimed)
  const Verdict verdict = verify(ch, order, episodes);
  if (verdict.failed > 0) {
    std::fprintf(stderr, "e2e_bench: %ld of %ld replies FAILED, first: %s\n",
                 verdict.failed, verdict.attempted, verdict.first_error.c_str());
  }

  std::vector<std::string> eps;
  for (const Episode& ep : episodes) {
    eps.push_back(Obj()
                      .val("traced", ep.traced)
                      .val("wall_s", ep.wall_s)
                      .val("cpu_s", ep.cpu_s)
                      .list("read_s", latencies(ep, false))
                      .list("commit_s", latencies(ep, true))
                      .text());
  }
  std::vector<std::string> noise;
  for (int p = 0; p < 4; ++p) {
    const Delays& d = verdict.epoch0[p];
    noise.push_back(Obj()
                        .str("mode", kPairs[p].mode == topk::Mode::kAddition
                                         ? "addition"
                                         : "elimination")
                        .val("baseline", d.baseline)
                        .val("reference", d.reference)
                        .val("evaluated", d.evaluated)
                        .text());
  }

  Obj out;
  out.str("workload", a.workload)
      .val("seed", static_cast<double>(a.seed))
      .raw("host", host_json())
      .raw("shape",
           Obj()
               .val("engine_threads", shard.query_threads)
               .val("shard_workers", shard.workers)
               .val("client_connections", kReaders + 1)
               .val("nets", static_cast<double>(ch.gen.netlist->num_nets()))
               .val("couplings",
                    static_cast<double>(ch.gen.parasitics.num_couplings()))
               .val("episode_commits", static_cast<double>(kEpisodeCommits))
               .text())
      .val("attempted", static_cast<double>(verdict.attempted))
      .val("failed", static_cast<double>(verdict.failed))
      .str("first_error", verdict.first_error)
      .list("setup_s", setup_s)
      .raw("episodes", array(eps))
      .raw("noise", array(noise))
      .val("peak_rss_mib", peak);
  if (a.trace) {
    obs::tracer().enable(true);
    const Obj standalone = standalone_layers(ch, 1, 3);
    obs::tracer().enable(false);
    obs::tracer().clear();
    out.raw("traced_episodes", array(layers))
        .raw("standalone", standalone.text())
        .list("whatif_ms", verdict.whatif_ms);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  log::set_level(log::Level::kWarn);
  obs::register_core_metrics();
  const double inf = std::numeric_limits<double>::infinity();
  if (a.workload == "enum_elim") {
    return run_cold(a, {222, 706, topk::Mode::kElimination, 32, 0, inf, 16});
  }
  if (a.workload == "fixpoint_add") {
    return run_cold(a, {1018, 14140, topk::Mode::kAddition, 12, 10, 0.10, 8});
  }
  if (a.workload == "serve_eco") return run_serve(a);
  std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", a.workload.c_str());
  return 2;
}
