// tka — command-line front end for the library.
//
//   tka analyze  <netlist> [--spef F] [--clock T] noise-aware timing report
//                                                 (+ violations vs clock T)
//   tka topk     <netlist> [--spef F] [-k N] [--mode add|elim]
//                [--out F.json|F.csv]             top-k aggressor set
//   tka whatif   <netlist> [--spef F] [-k N] [-n N] [--mode add|elim]
//                                                 N-step what-if repair loop
//                                                 over a warm AnalysisSession
//   tka glitch   <netlist> [--spef F]            functional-noise report
//   tka paths    <netlist> [--spef F] [-n N]     worst timing paths
//   tka convert  <netlist> --out F.v|F.bench|F.dot
//   tka serve    [--port N] [--unix PATH] [--design NAME=FILE[,SPEF]]...
//                [--workers N] [--queue-cap N] [--query-threads N]
//                [--prom-out F]                long-lived analysis server
//                                              (protocol: docs/SERVER.md)
//
// Flags shared by every command:
//   --threads N           worker threads for analyze/topk (0 = auto: the
//                         TKA_THREADS env var, then hardware concurrency;
//                         1 = serial; results are identical for any N)
//   --trace FILE.json     record spans; write Chrome trace-event JSON
//                         (open in chrome://tracing or ui.perfetto.dev)
//   --metrics FILE.json   write the metrics registry + span summary JSON
//   --metrics-out FILE    periodic JSONL metric snapshots while the command
//                         runs, plus an RSS sampler (docs/OBSERVABILITY.md)
//   --metrics-interval MS snapshot period for --metrics-out (default 500)
//   --log-level LEVEL     debug|info|warn|error|off (default warn)
//
// <netlist> is a .bench or .v file (by extension). Without --spef,
// parasitics are synthesized with the built-in placer/router/extractor.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "io/bench_reader.hpp"
#include "io/dot_writer.hpp"
#include "io/report_writer.hpp"
#include "io/spef_lite.hpp"
#include "io/verilog_lite.hpp"
#include "layout/extractor.hpp"
#include "layout/placer.hpp"
#include "layout/router.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/envelope_builder.hpp"
#include "noise/glitch.hpp"
#include "noise/iterative.hpp"
#include "noise/violations.hpp"
#include "obs/obs.hpp"
#include "obs/signal_flush.hpp"
#include "server/server.hpp"
#include "session/analysis_session.hpp"
#include "sta/path_enum.hpp"
#include "topk/topk_engine.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

using namespace tka;

namespace {

struct Args {
  std::string command;
  std::string netlist_path;
  std::string spef_path;
  std::string out_path;
  std::string trace_path;    // --trace: Chrome trace-event JSON
  std::string metrics_path;  // --metrics: registry + span summary JSON
  std::string metrics_out;   // --metrics-out: periodic JSONL snapshots
  int metrics_interval_ms = 500;
  int k = 10;
  int num_paths = 5;
  int threads = 0;  // --threads: 0 = auto (TKA_THREADS, then hw concurrency)
  double clock_ns = 0.0;  // 0 = unconstrained
  topk::Mode mode = topk::Mode::kElimination;

  // serve
  int serve_port = -1;               // --port (-1 = no TCP listener)
  std::string serve_unix;            // --unix socket path
  std::vector<std::string> designs;  // --design NAME=FILE[,SPEF]
  int serve_workers = 1;             // --workers per design shard
  int serve_queue_cap = 32;          // --queue-cap admission bound
  int serve_query_threads = 1;       // --query-threads inside each query
  std::string prom_out;              // --prom-out Prometheus text file
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tka <analyze|topk|whatif|glitch|paths|convert> <netlist> "
               "[--spef F] [--clock T] [-k N] [--mode add|elim] [-n N] "
               "[--threads N] [--out F] [--trace F.json] [--metrics F.json] "
               "[--metrics-out F.jsonl] [--metrics-interval MS] "
               "[--log-level debug|info|warn|error|off]\n"
               "       tka serve [--port N] [--unix PATH] "
               "[--design NAME=FILE[,SPEF]]... [--workers N] [--queue-cap N] "
               "[--query-threads N] [--prom-out F] [common flags]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) usage();
  args.command = argv[1];
  int first_flag = 2;
  if (args.command != "serve") {
    // Every other command takes the netlist as its positional argument.
    if (argc < 3) usage();
    args.netlist_path = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--spef") {
      args.spef_path = next();
    } else if (a == "--trace") {
      args.trace_path = next();
    } else if (a == "--metrics") {
      args.metrics_path = next();
    } else if (a == "--metrics-out") {
      args.metrics_out = next();
    } else if (a == "--metrics-interval") {
      args.metrics_interval_ms = std::atoi(next().c_str());
      if (args.metrics_interval_ms <= 0) usage();
    } else if (a == "--log-level") {
      log::Level level;
      if (!log::parse_level(next(), &level)) usage();
      log::set_level(level);
    } else if (a == "-k") {
      args.k = std::atoi(next().c_str());
    } else if (a == "-n") {
      args.num_paths = std::atoi(next().c_str());
    } else if (a == "--threads") {
      args.threads = std::atoi(next().c_str());
      if (args.threads < 0) usage();
    } else if (a == "--out") {
      args.out_path = next();
    } else if (a == "--clock") {
      args.clock_ns = std::atof(next().c_str());
    } else if (a == "--mode") {
      const std::string m = next();
      if (m == "add") {
        args.mode = topk::Mode::kAddition;
      } else if (m == "elim") {
        args.mode = topk::Mode::kElimination;
      } else {
        usage();
      }
    } else if (a == "--port") {
      args.serve_port = std::atoi(next().c_str());
      if (args.serve_port < 0 || args.serve_port > 65535) usage();
    } else if (a == "--unix") {
      args.serve_unix = next();
    } else if (a == "--design") {
      args.designs.push_back(next());
    } else if (a == "--workers") {
      args.serve_workers = std::atoi(next().c_str());
      if (args.serve_workers < 1) usage();
    } else if (a == "--queue-cap") {
      args.serve_queue_cap = std::atoi(next().c_str());
      if (args.serve_queue_cap < 1) usage();
    } else if (a == "--query-threads") {
      args.serve_query_threads = std::atoi(next().c_str());
      if (args.serve_query_threads < 1) usage();
    } else if (a == "--prom-out") {
      args.prom_out = next();
    } else {
      usage();
    }
  }
  return args;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::unique_ptr<net::Netlist> load_netlist(const std::string& path) {
  if (ends_with(path, ".v")) return io::read_verilog_file(path);
  return io::read_bench_file(path);
}

layout::Parasitics load_or_extract(const Args& args, const net::Netlist& nl) {
  if (!args.spef_path.empty()) return io::read_spef_lite_file(args.spef_path, nl);
  const layout::Placement placement = layout::grid_place(nl, {});
  const std::vector<layout::Route> routes = layout::route_all(nl, placement);
  return layout::extract(nl, routes, {});
}

int cmd_analyze(const Args& args) {
  auto nl = load_netlist(args.netlist_path);
  const layout::Parasitics par = load_or_extract(args, *nl);
  sta::DelayModel model(*nl, par);
  noise::AnalyticCouplingCalculator calc(par, model);
  noise::IterativeOptions iter_opt;
  iter_opt.threads = args.threads;
  const noise::NoiseReport rep =
      noise::analyze_iterative(*nl, par, model, calc,
                               noise::CouplingMask::all(par.num_couplings()),
                               iter_opt);
  std::printf("design        : %s\n", nl->name().c_str());
  std::printf("gates / nets  : %zu / %zu\n", nl->num_gates(), nl->num_nets());
  std::printf("couplings     : %zu\n", par.num_couplings());
  std::printf("noiseless     : %.4f ns\n", rep.noiseless_delay);
  std::printf("with noise    : %.4f ns  (+%.1f%%)\n", rep.noisy_delay,
              100.0 * (rep.noisy_delay / rep.noiseless_delay - 1.0));
  std::printf("iterations    : %d (%s)\n", rep.iterations,
              rep.converged ? "converged" : "NOT converged");
  if (args.clock_ns > 0.0) {
    const noise::ConstraintReport cr =
        noise::check_constraints(*nl, rep, args.clock_ns);
    std::printf("clock         : %.4f ns, worst slack %.4f ns, %zu "
                "violation(s), TNS %.4f ns\n",
                cr.clock_period_ns, cr.worst_slack_ns, cr.violations.size(),
                cr.total_negative_slack_ns);
    for (const noise::Violation& v : cr.violations) {
      std::printf("  VIOLATION %-20s arrival %.4f slack %.4f\n",
                  nl->net(v.endpoint).name.c_str(), v.arrival_ns, v.slack_ns);
    }
  }
  return 0;
}

int cmd_topk(const Args& args) {
  auto nl = load_netlist(args.netlist_path);
  const layout::Parasitics par = load_or_extract(args, *nl);
  session::AnalysisSession session(*nl, par, sta::DelayModelOptions{});
  topk::TopkOptions opt;
  opt.k = args.k;
  opt.mode = args.mode;
  opt.threads = args.threads;
  const topk::TopkResult res = session.run(opt);
  std::printf("top-%d %s set (baseline %.4f ns -> %.4f ns):\n", args.k,
              args.mode == topk::Mode::kAddition ? "addition" : "elimination",
              res.baseline_delay, res.evaluated_delay);
  for (layout::CapId id : res.members) {
    const layout::CouplingCap& cc = par.coupling(id);
    std::printf("  %-20s ~ %-20s %8.5f pF\n", nl->net(cc.net_a).name.c_str(),
                nl->net(cc.net_b).name.c_str(), cc.cap_pf);
  }
  std::printf("engine: %.3f s (%d thread%s), %zu candidate sets, max list %zu\n",
              res.stats.runtime_s, res.stats.threads,
              res.stats.threads == 1 ? "" : "s", res.stats.sets_generated,
              res.stats.max_list_size);
  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path);
    TKA_CHECK(static_cast<bool>(out), "topk: cannot open --out file");
    if (ends_with(args.out_path, ".csv")) {
      io::write_topk_trail_csv(out, res);
    } else {
      io::write_topk_result_json(out, *nl, par, res, args.k);
    }
    std::printf("wrote %s\n", args.out_path.c_str());
  }
  return 0;
}

// The repair loop the session's what_if exists for: analyze, decouple the
// worst coupling the top-k report names, re-ask incrementally, repeat -n
// times. The priming run is the only cold analysis; every subsequent query
// reuses the session's baseline fixpoints and memoized candidate lists.
int cmd_whatif(const Args& args) {
  auto nl = load_netlist(args.netlist_path);
  layout::Parasitics par = load_or_extract(args, *nl);
  session::AnalysisSession session(
      *nl, std::move(par), sta::DelayModelOptions{},
      session::SessionOptions{.retain_candidates = true});
  topk::TopkOptions opt;
  opt.k = args.k;
  opt.mode = args.mode;
  opt.threads = args.threads;

  topk::TopkResult res = session.run(opt);
  std::printf("%-5s %-20s %-20s %10s %12s %9s\n", "step", "victim", "aggressor",
              "cap(pF)", "delay(ns)", "query(s)");
  std::printf("%-5s %-20s %-20s %10s %12.4f %8.3fs\n", "prime", "-", "-", "-",
              res.evaluated_delay, res.stats.runtime_s);
  for (int step = 1; step <= args.num_paths; ++step) {
    if (res.members.empty()) {
      std::printf("nothing left to repair after %d step(s)\n", step - 1);
      break;
    }
    const layout::CapId worst = res.members.front();
    const layout::CouplingCap cc = session.parasitics().coupling(worst);
    session::WhatIfEdit edit;
    edit.zero_couplings = {worst};
    res = session.what_if(edit);
    std::printf("%-5d %-20s %-20s %10.5f %12.4f %8.3fs\n", step,
                session.netlist().net(cc.net_a).name.c_str(),
                session.netlist().net(cc.net_b).name.c_str(), cc.cap_pf,
                res.evaluated_delay, res.stats.runtime_s);
  }
  std::printf("remaining top-%d %s set:\n", args.k,
              args.mode == topk::Mode::kAddition ? "addition" : "elimination");
  for (layout::CapId id : res.members) {
    const layout::CouplingCap& cc = session.parasitics().coupling(id);
    std::printf("  %-20s ~ %-20s %8.5f pF\n",
                session.netlist().net(cc.net_a).name.c_str(),
                session.netlist().net(cc.net_b).name.c_str(), cc.cap_pf);
  }
  return 0;
}

int cmd_glitch(const Args& args) {
  auto nl = load_netlist(args.netlist_path);
  const layout::Parasitics par = load_or_extract(args, *nl);
  sta::DelayModel model(*nl, par);
  noise::AnalyticCouplingCalculator calc(par, model);
  const sta::StaResult sta_res = sta::run_sta(*nl, model);
  noise::EnvelopeBuilder builder(*nl, par, calc, sta_res.windows);
  const noise::GlitchReport rep = noise::analyze_glitch(
      *nl, par, model, builder, noise::CouplingMask::all(par.num_couplings()));
  std::printf("worst glitch  : %.3f V on %s\n", rep.worst_peak_v,
              rep.worst_net == net::kInvalidNet
                  ? "-"
                  : nl->net(rep.worst_net).name.c_str());
  std::printf("failing nets  : %zu\n", rep.failing_nets.size());
  for (net::NetId n : rep.failing_nets) {
    std::printf("  %-20s coupled %.3f V propagated %.3f V\n",
                nl->net(n).name.c_str(), rep.coupled_peak_v[n],
                rep.propagated_peak_v[n]);
  }
  return 0;
}

int cmd_paths(const Args& args) {
  auto nl = load_netlist(args.netlist_path);
  const layout::Parasitics par = load_or_extract(args, *nl);
  sta::DelayModel model(*nl, par);
  const sta::StaResult sta_res = sta::run_sta(*nl, model);
  const auto paths =
      sta::k_worst_paths(*nl, sta_res, static_cast<size_t>(args.num_paths));
  for (size_t i = 0; i < paths.size(); ++i) {
    std::printf("#%zu  %.4f ns :", i + 1, paths[i].arrival);
    for (net::NetId n : paths[i].nets) std::printf(" %s", nl->net(n).name.c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_convert(const Args& args) {
  TKA_CHECK(!args.out_path.empty(), "convert: --out required");
  auto nl = load_netlist(args.netlist_path);
  if (ends_with(args.out_path, ".v")) {
    io::write_verilog_file(args.out_path, *nl);
  } else if (ends_with(args.out_path, ".dot")) {
    std::ofstream out(args.out_path);
    TKA_CHECK(static_cast<bool>(out), "convert: cannot open output");
    io::write_dot(out, *nl);
  } else {
    throw Error("convert: unsupported output format for '" + args.out_path + "'");
  }
  std::printf("wrote %s\n", args.out_path.c_str());
  return 0;
}

// Analysis-as-a-service (docs/SERVER.md): load designs once, serve
// concurrent topk/what_if queries over TCP and/or a unix socket until
// SIGTERM/SIGINT triggers a graceful drain. With neither --port nor --unix,
// listens on an ephemeral TCP port (printed on the "listening" line so
// scripts can pick it up).
int cmd_serve(const Args& args) {
  obs::register_core_metrics();
  server::ServerOptions sopt;
  sopt.tcp_port = args.serve_port;
  sopt.unix_path = args.serve_unix;
  if (sopt.tcp_port < 0 && sopt.unix_path.empty()) sopt.tcp_port = 0;
  sopt.default_shard.workers = args.serve_workers;
  sopt.default_shard.queue_cap =
      static_cast<std::size_t>(args.serve_queue_cap);
  sopt.default_shard.query_threads = args.serve_query_threads;
  server::Server srv(sopt);

  for (const std::string& spec : args.designs) {
    const std::size_t eq = spec.find('=');
    TKA_CHECK(eq != std::string::npos && eq > 0,
              "serve: --design expects NAME=FILE[,SPEF]");
    const std::string name = spec.substr(0, eq);
    std::string file = spec.substr(eq + 1);
    std::string spef;
    if (const std::size_t comma = file.find(','); comma != std::string::npos) {
      spef = file.substr(comma + 1);
      file = file.substr(0, comma);
    }
    std::string error;
    if (!srv.load_design(name, file, spef, &error)) {
      throw Error("serve: cannot load '" + name + "': " + error);
    }
    std::printf("loaded design '%s' from %s\n", name.c_str(), file.c_str());
  }

  std::string error;
  if (!srv.start(&error)) throw Error("serve: " + error);
  if (srv.tcp_port() >= 0) {
    std::printf("listening on 127.0.0.1:%d\n", srv.tcp_port());
  }
  if (!args.serve_unix.empty()) {
    std::printf("listening on unix:%s\n", args.serve_unix.c_str());
  }
  std::printf("ready\n");
  std::fflush(stdout);

  // First signal: graceful drain (in-flight queries finish and respond).
  // Second signal: the default flush-and-exit path, which still writes the
  // --prom-out dump via the hook below.
  if (!args.prom_out.empty()) {
    obs::add_flush_hook([path = args.prom_out] {
      std::ofstream out(path);
      if (out) obs::write_prometheus_text(out);
    });
  }
  obs::install_signal_flush();
  obs::set_graceful_delegate([&srv](int) { srv.request_shutdown(); });
  srv.wait();
  obs::set_graceful_delegate({});

  if (!args.prom_out.empty()) {
    std::ofstream out(args.prom_out);
    TKA_CHECK(static_cast<bool>(out), "serve: cannot open --prom-out file");
    obs::write_prometheus_text(out);
    std::printf("wrote %s\n", args.prom_out.c_str());
  }
  std::printf("drained\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.trace_path.empty() || !args.metrics_path.empty()) {
      obs::register_core_metrics();
      obs::tracer().enable(true);
    }
    std::unique_ptr<obs::MetricsFileSink> sink;
    std::unique_ptr<obs::RssSampler> rss;
    if (!args.metrics_out.empty()) {
      obs::register_core_metrics();
      sink = std::make_unique<obs::MetricsFileSink>(args.metrics_out,
                                                    args.metrics_interval_ms);
      TKA_CHECK(sink->ok(), "cannot open --metrics-out file");
      // Drive the mem.rss_* gauges so the snapshot timeline shows the
      // footprint, not just the counters.
      rss = std::make_unique<obs::RssSampler>(args.metrics_interval_ms);
    }
    // An interrupted run still flushes its observability artifacts: the
    // JSONL sink's final record, the trace and the metrics dump (all
    // idempotent, so a clean exit path re-running them is harmless).
    if (sink != nullptr || !args.trace_path.empty() ||
        !args.metrics_path.empty()) {
      obs::install_signal_flush();
      obs::add_flush_hook([&args, &sink, &rss] {
        if (rss) rss->stop();
        if (sink) sink->stop();
        if (!args.trace_path.empty()) {
          std::ofstream out(args.trace_path);
          if (out) obs::tracer().write_chrome_json(out);
        }
        if (!args.metrics_path.empty()) {
          obs::run_collectors();
          std::ofstream out(args.metrics_path);
          if (out) obs::write_metrics_json(out);
        }
      });
    }
    int rc = -1;
    if (args.command == "analyze") rc = cmd_analyze(args);
    else if (args.command == "topk") rc = cmd_topk(args);
    else if (args.command == "whatif") rc = cmd_whatif(args);
    else if (args.command == "glitch") rc = cmd_glitch(args);
    else if (args.command == "paths") rc = cmd_paths(args);
    else if (args.command == "convert") rc = cmd_convert(args);
    else if (args.command == "serve") rc = cmd_serve(args);
    else usage();
    if (!args.trace_path.empty()) {
      std::ofstream out(args.trace_path);
      TKA_CHECK(static_cast<bool>(out), "cannot open --trace file");
      obs::tracer().write_chrome_json(out);
      std::printf("wrote %s\n", args.trace_path.c_str());
    }
    if (rss) rss->stop();
    if (sink) {
      sink->stop();
      std::printf("wrote %s (%llu snapshot records)\n", args.metrics_out.c_str(),
                  static_cast<unsigned long long>(sink->records()));
    }
    if (!args.metrics_path.empty()) {
      obs::run_collectors();
      std::ofstream out(args.metrics_path);
      TKA_CHECK(static_cast<bool>(out), "cannot open --metrics file");
      obs::write_metrics_json(out);
      std::printf("wrote %s\n", args.metrics_path.c_str());
    }
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "tka: %s\n", e.what());
    return 1;
  }
}
