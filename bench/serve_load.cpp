// serve_load — service latency and throughput of the `tka serve` path
// (docs/SERVER.md), measured in-process against a real Server over TCP.
//
// Storm cases drive a shared read-only server at 1, 4 and 8 concurrent
// closed-loop clients (plus 16 at scale >= 1); a commit case exercises the
// what_if path (serial epoch advances, then a concurrent read storm at the
// final epoch). Every response the server produces is string-compared
// against the expected payload built locally from the same protocol
// helpers plus a local AnalysisSession — the bit-identity contract
// (protocol.hpp) means a correct server matches byte for byte, at any
// client count. `match` (a gated value) is 1.0 only when every response
// matched.
//
// The scale tier (--scale >= 1) adds `commit_mix`: a committer advances
// the epoch *while* reader storms run. A reader cannot know which epoch
// will answer it, so each response is validated by parsing its epoch
// stamp, checking the stamps a connection observes never go backwards
// (snapshot isolation: the head only advances), and byte-comparing the
// payload against the expected render precomputed for that exact epoch
// from a local warm session chain. The scale tier has its own committed
// baseline (bench/baselines/scale/) gated with a tight peak-RSS
// threshold — shared COW snapshots are the point of the serving design,
// so the footprint is a first-class result there.
//
// Throughput and latency percentiles are machine- and load-dependent, so
// they land in the telemetry section (Reporter::telemetry): bench_compare
// surfaces them as informational notes, never regressions. The gated
// values are the deterministic ones — match flags, request counts and the
// per-k / per-epoch delays from the local session.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "channel.hpp"
#include "common.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "session/analysis_session.hpp"

using namespace tka;
using bench::Channel;
using bench::channel_options;
using bench::make_channel;

namespace {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

struct StormOutcome {
  long completed = 0;
  long mismatches = 0;
  long transport_failures = 0;
  double elapsed_s = 0.0;
  std::vector<double> lat_s;  // sorted on return

  double qps() const {
    return elapsed_s > 0.0 ? static_cast<double>(completed) / elapsed_s : 0.0;
  }
};

/// Drives `clients` closed-loop connections, `per_client` requests each.
/// `request`/`expected` map a global sequence number (deterministic per
/// client: c*per_client + i) to the payload to send and the exact response
/// payload the server must produce.
StormOutcome run_storm(int port, int clients, int per_client,
                       const std::function<std::string(long)>& request,
                       const std::function<std::string(long)>& expected) {
  std::vector<StormOutcome> per(static_cast<std::size_t>(clients));
  const std::int64_t t0 = obs::now_ns();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      StormOutcome& st = per[static_cast<std::size_t>(c)];
      server::Client client;
      std::string error;
      if (!client.connect_tcp("127.0.0.1", port, &error)) {
        ++st.transport_failures;
        return;
      }
      for (int i = 0; i < per_client; ++i) {
        const long seq = static_cast<long>(c) * per_client + i;
        const std::int64_t sent = obs::now_ns();
        std::string resp;
        if (!client.call(request(seq), &resp, &error)) {
          ++st.transport_failures;
          return;
        }
        st.lat_s.push_back(obs::ns_to_seconds(obs::now_ns() - sent));
        ++st.completed;
        if (resp != expected(seq)) {
          if (st.mismatches == 0) {
            std::fprintf(stderr,
                         "serve_load: MISMATCH seq %ld\n  got:  %.200s\n"
                         "  want: %.200s\n",
                         seq, resp.c_str(), expected(seq).c_str());
          }
          ++st.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  StormOutcome merged;
  merged.elapsed_s = obs::ns_to_seconds(obs::now_ns() - t0);
  for (StormOutcome& st : per) {
    merged.completed += st.completed;
    merged.mismatches += st.mismatches;
    merged.transport_failures += st.transport_failures;
    merged.lat_s.insert(merged.lat_s.end(), st.lat_s.begin(), st.lat_s.end());
  }
  std::sort(merged.lat_s.begin(), merged.lat_s.end());
  return merged;
}

std::string topk_request(long seq, int k) {
  return str::format(
      "{\"id\": %ld, \"op\": \"topk\", \"k\": %d, \"mode\": \"elim\"}", seq, k);
}

/// Extracts the epoch stamp from a response payload ("\"epoch\": N");
/// -1 when malformed. The commit_mix readers use it to select which
/// per-epoch expected render a response must match byte for byte.
long parse_epoch(const std::string& resp) {
  const std::string key = "\"epoch\": ";
  const std::size_t pos = resp.find(key);
  if (pos == std::string::npos) return -1;
  std::size_t i = pos + key.size();
  if (i >= resp.size() || resp[i] < '0' || resp[i] > '9') return -1;
  long v = 0;
  for (; i < resp.size() && resp[i] >= '0' && resp[i] <= '9'; ++i) {
    v = v * 10 + (resp[i] - '0');
  }
  return v;
}

/// Serving-side split and snapshot footprint, read from the in-process
/// metrics registry: where an admitted request spends its time (queueing
/// vs executing, cumulative across the suite's cases) and what the
/// snapshot chain costs. Telemetry only — machine-dependent.
/// tools/perf_report renders these as the serving section.
void report_serving_telemetry(bench::Reporter& r) {
  obs::MetricsRegistry& reg = obs::registry();
  r.telemetry("queue_wait_p50_ms",
              reg.histogram("server.queue_wait_s").stats().p50 * 1e3);
  r.telemetry("exec_p50_ms",
              reg.histogram("server.latency.topk_s").stats().p50 * 1e3);
  r.telemetry("snapshots_live", reg.gauge("server.snapshots_live").value());
  r.telemetry("snapshot_bytes_shared",
              reg.gauge("server.snapshot_bytes_shared").value());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "serve_load");
  const bool smoke_sized = bench::scale() == 0;

  // Design and workload sizes. The channel is small enough that a single
  // query is milliseconds — the bench measures serving overhead and queue
  // behavior, not engine throughput on big designs (parallel_scaling owns
  // that).
  const int groups = smoke_sized ? 4 : 8;
  const int chains = smoke_sized ? 3 : 4;
  const int depth = smoke_sized ? 8 : 10;
  const std::vector<int> ks = smoke_sized ? std::vector<int>{3, 5}
                                          : std::vector<int>{4, 8};
  const int per_client = smoke_sized ? 4 : 6;
  const int commits = smoke_sized ? 3 : 5;

  const Channel ch = make_channel(groups, chains, depth);
  const sta::DelayModelOptions model_opt;  // defaults, same as the server's

  // The serving contract fixes query_threads = 1 (concurrency comes from
  // workers, not intra-query threads); the local expected-response sessions
  // pin the same so identity is checked against the exact serving config.
  server::ShardOptions shard_opt;
  shard_opt.workers = 2;
  shard_opt.queue_cap = 64;
  shard_opt.query_threads = 1;

  std::printf("serve_load: channel %dx%dx%d (%zu caps), k in {%d,%d}, "
              "%d requests/client\n",
              groups, chains, depth, ch.parasitics.num_couplings(), ks[0],
              ks[1], per_client);

  // ---- Epoch-0 read storms: one shared server, clients = 1 / 4 / 8 ----
  // Expected responses are computed once from a local session; the request
  // id is the global sequence number, so every expected payload is a pure
  // function of seq.
  std::map<int, std::string> rendered;  // k -> rendered result object
  std::map<int, double> delay_by_k;
  {
    session::AnalysisSession local(*ch.netlist, ch.parasitics, model_opt,
                                   session::SessionOptions{
                                       .retain_candidates = false});
    for (int k : ks) {
      topk::TopkOptions opt = channel_options(ch, k);
      opt.threads = shard_opt.query_threads;
      const topk::TopkResult res = local.run(opt);
      rendered[k] = server::render_topk_result(local.netlist(),
                                               local.parasitics(), res, k);
      delay_by_k[k] = res.evaluated_delay;
    }
  }

  server::ServerOptions srv_opt;
  srv_opt.tcp_port = 0;  // ephemeral: no port collisions across CI jobs
  server::Server srv(srv_opt);
  std::string error;
  if (!srv.add_design("channel", std::make_unique<net::Netlist>(*ch.netlist),
                      layout::Parasitics(ch.parasitics), shard_opt,
                      channel_options(ch, ks[0]), &error) ||
      !srv.start(&error)) {
    std::fprintf(stderr, "serve_load: server setup: %s\n", error.c_str());
    return 1;
  }
  const int port = srv.tcp_port();

  auto storm_request = [&](long seq) {
    return topk_request(seq, ks[static_cast<std::size_t>(seq) % ks.size()]);
  };
  auto storm_expected = [&](long seq) {
    const int k = ks[static_cast<std::size_t>(seq) % ks.size()];
    return server::make_ok_response(static_cast<std::uint64_t>(seq), 0,
                                    "\"result\": " + rendered[k]);
  };

  struct Row {
    std::string name;
    int clients = 0;
    StormOutcome out;
  };
  std::vector<Row> rows;

  const std::vector<int> storm_clients =
      smoke_sized ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 4, 8, 16};
  for (int clients : storm_clients) {
    const std::string name = str::format("storm_c%d", clients);
    Row row{name, clients, {}};
    const bool ran = h.run_case(name, [&](bench::Reporter& r) {
      row.out = run_storm(port, clients, per_client, storm_request,
                          storm_expected);
      const bool clean = row.out.mismatches == 0 &&
                         row.out.transport_failures == 0 &&
                         row.out.completed ==
                             static_cast<long>(clients) * per_client;
      r.value("match", clean ? 1.0 : 0.0);
      r.value("requests", static_cast<double>(row.out.completed));
      for (int k : ks) {
        r.value(str::format("delay_k%d", k), delay_by_k[k]);
      }
      r.telemetry("qps", row.out.qps());
      r.telemetry("p50_ms", percentile(row.out.lat_s, 0.50) * 1e3);
      r.telemetry("p99_ms", percentile(row.out.lat_s, 0.99) * 1e3);
      report_serving_telemetry(r);
    });
    if (ran) rows.push_back(row);
  }
  srv.request_shutdown();
  srv.wait();

  // ---- what_if commit path: serial epoch advances + read storm at the
  // final epoch. A commit mutates the shard, so each rep gets a fresh
  // server; the expected chain comes from a warm local session driven with
  // the same edits, the post-edit storm from a fresh one-shot session on
  // the edited design.
  Row commit_row{"whatif_commits", 4, {}};
  std::vector<double> commit_lat_ms;
  const bool commit_ran = h.run_case("whatif_commits", [&](bench::Reporter& r) {
    const int kq = ks[0];
    server::Server wsrv(srv_opt);
    std::string err;
    if (!wsrv.add_design("channel", std::make_unique<net::Netlist>(*ch.netlist),
                         layout::Parasitics(ch.parasitics), shard_opt,
                         channel_options(ch, kq), &err) ||
        !wsrv.start(&err)) {
      std::fprintf(stderr, "serve_load: server setup: %s\n", err.c_str());
      r.value("match", 0.0);
      return;
    }

    // The expected commit chain: prime once, then one what_if per edit, as
    // the shard's elimination session does on each commit.
    session::AnalysisSession writer(*ch.netlist, ch.parasitics, model_opt,
                                    session::SessionOptions{
                                        .retain_candidates = true});
    topk::TopkOptions wopt = channel_options(ch, kq);
    wopt.threads = shard_opt.query_threads;
    const topk::TopkResult primed = writer.run(wopt);
    r.value("delay_epoch0", primed.evaluated_delay);

    const std::size_t num_caps = ch.parasitics.num_couplings();
    server::Client client;
    std::string cerr_msg;
    bool clean = client.connect_tcp("127.0.0.1", wsrv.tcp_port(), &cerr_msg);

    commit_lat_ms.clear();
    std::vector<layout::CapId> shielded;
    for (int e = 0; clean && e < commits; ++e) {
      const layout::CapId cap =
          static_cast<layout::CapId>((static_cast<std::size_t>(e) * 7) %
                                     num_caps);
      shielded.push_back(cap);
      session::WhatIfEdit edit;
      edit.shield_couplings = {cap};
      const topk::TopkResult want = writer.what_if(edit);
      const std::string expected = server::make_ok_response(
          static_cast<std::uint64_t>(1000 + e),
          static_cast<std::uint64_t>(e + 1),
          "\"result\": " + server::render_topk_result(
                               writer.netlist(), writer.parasitics(), want,
                               kq));
      const std::string req = str::format(
          "{\"id\": %d, \"op\": \"what_if\", \"shield\": [%u], \"k\": %d, "
          "\"mode\": \"elim\"}",
          1000 + e, static_cast<unsigned>(cap), kq);
      const std::int64_t sent = obs::now_ns();
      std::string resp;
      if (!client.call(req, &resp, &cerr_msg)) {
        clean = false;
        break;
      }
      commit_lat_ms.push_back(obs::ns_to_seconds(obs::now_ns() - sent) * 1e3);
      if (resp != expected) {
        std::fprintf(stderr,
                     "serve_load: commit %d MISMATCH\n  got:  %.200s\n"
                     "  want: %.200s\n",
                     e, resp.c_str(), expected.c_str());
        clean = false;
        break;
      }
      r.value(str::format("delay_epoch%d", e + 1), want.evaluated_delay);
    }
    client.close();

    // The expectation at the final epoch: base + all edits, a fresh
    // one-shot session.
    net::Netlist edited_nl(*ch.netlist);
    layout::Parasitics edited_par(ch.parasitics);
    for (layout::CapId cap : shielded) edited_par.shield_coupling(cap);
    session::AnalysisSession reader(std::move(edited_nl),
                                    std::move(edited_par), model_opt,
                                    session::SessionOptions{
                                        .retain_candidates = false});
    topk::TopkOptions ropt = channel_options(ch, kq);
    ropt.threads = shard_opt.query_threads;
    const topk::TopkResult after = reader.run(ropt);
    const std::string after_rendered = server::render_topk_result(
        reader.netlist(), reader.parasitics(), after, kq);
    r.value("delay_final", after.evaluated_delay);

    commit_row.out = run_storm(
        wsrv.tcp_port(), commit_row.clients, per_client,
        [&](long seq) { return topk_request(seq, kq); },
        [&](long seq) {
          return server::make_ok_response(
              static_cast<std::uint64_t>(seq),
              static_cast<std::uint64_t>(commits),
              "\"result\": " + after_rendered);
        });
    clean = clean && commit_row.out.mismatches == 0 &&
            commit_row.out.transport_failures == 0 &&
            commit_row.out.completed ==
                static_cast<long>(commit_row.clients) * per_client;
    r.value("match", clean ? 1.0 : 0.0);
    r.value("commits", static_cast<double>(commits));
    std::sort(commit_lat_ms.begin(), commit_lat_ms.end());
    r.telemetry("commit_p50_ms", percentile(commit_lat_ms, 0.50));
    r.telemetry("qps", commit_row.out.qps());
    r.telemetry("p50_ms", percentile(commit_row.out.lat_s, 0.50) * 1e3);
    r.telemetry("p99_ms", percentile(commit_row.out.lat_s, 0.99) * 1e3);
    report_serving_telemetry(r);

    wsrv.request_shutdown();
    wsrv.wait();
  });
  if (commit_ran) rows.push_back(commit_row);

  // ---- Scale tier: concurrent commit mix. The committer advances the
  // epoch while the reader storm runs, so a reader cannot predict which
  // epoch answers it — but whatever epoch the server stamps, the payload
  // must be byte-identical to the expected render precomputed for that
  // epoch from a local warm session chain, and the stamps one connection
  // observes must never go backwards (a closed-loop client's next request
  // pins the head at or past its previous answer's epoch). Readers keep
  // reading until the commits land, so the storm always spans the whole
  // commit window; a read issued after the last commit's response must be
  // stamped with the final epoch (the head never moves again), which makes
  // the end state deterministic even though the interleaving is not.
  if (!smoke_sized) {
    const int mix_commits = 6;
    const int mix_readers = 8;
    const int mix_per_client = 12;  // minimum reads per client
    Row mix_row{"commit_mix", mix_readers, {}};
    const bool mix_ran = h.run_case("commit_mix", [&](bench::Reporter& r) {
      const int kq = ks[0];
      server::Server msrv(srv_opt);
      std::string err;
      if (!msrv.add_design("channel",
                           std::make_unique<net::Netlist>(*ch.netlist),
                           layout::Parasitics(ch.parasitics), shard_opt,
                           channel_options(ch, kq), &err) ||
          !msrv.start(&err)) {
        std::fprintf(stderr, "serve_load: server setup: %s\n", err.c_str());
        r.value("match", 0.0);
        return;
      }

      // Expected "result" fragment per epoch, from a local prime + one
      // what_if per commit.
      session::AnalysisSession writer(*ch.netlist, ch.parasitics, model_opt,
                                      session::SessionOptions{
                                          .retain_candidates = true});
      topk::TopkOptions wopt = channel_options(ch, kq);
      wopt.threads = shard_opt.query_threads;
      const topk::TopkResult primed = writer.run(wopt);
      r.value("delay_epoch0", primed.evaluated_delay);
      std::vector<std::string> result_at;  // epoch -> "result" fragment
      result_at.push_back("\"result\": " +
                          server::render_topk_result(writer.netlist(),
                                                     writer.parasitics(),
                                                     primed, kq));
      const std::size_t num_caps = ch.parasitics.num_couplings();
      std::vector<layout::CapId> mix_caps;
      for (int e = 0; e < mix_commits; ++e) {
        const layout::CapId cap = static_cast<layout::CapId>(
            (static_cast<std::size_t>(e) * 11 + 3) % num_caps);
        mix_caps.push_back(cap);
        session::WhatIfEdit edit;
        edit.shield_couplings = {cap};
        const topk::TopkResult want = writer.what_if(edit);
        result_at.push_back("\"result\": " +
                            server::render_topk_result(writer.netlist(),
                                                       writer.parasitics(),
                                                       want, kq));
        r.value(str::format("delay_epoch%d", e + 1), want.evaluated_delay);
      }

      const int mport = msrv.tcp_port();
      std::atomic<long> mismatches{0};
      std::atomic<long> transport{0};
      std::atomic<bool> commits_done{false};
      std::vector<StormOutcome> per(static_cast<std::size_t>(mix_readers));
      std::vector<long> final_epoch(static_cast<std::size_t>(mix_readers), -1);
      std::vector<double> commit_ms;
      const std::int64_t t0 = obs::now_ns();

      std::thread committer([&] {
        server::Client cc;
        std::string cerr_msg;
        bool ok = cc.connect_tcp("127.0.0.1", mport, &cerr_msg);
        for (int e = 0; ok && e < mix_commits; ++e) {
          const std::string req = str::format(
              "{\"id\": %d, \"op\": \"what_if\", \"shield\": [%u], "
              "\"k\": %d, \"mode\": \"elim\"}",
              5000 + e,
              static_cast<unsigned>(mix_caps[static_cast<std::size_t>(e)]),
              kq);
          const std::string expected = server::make_ok_response(
              static_cast<std::uint64_t>(5000 + e),
              static_cast<std::uint64_t>(e + 1),
              result_at[static_cast<std::size_t>(e + 1)]);
          const std::int64_t sent = obs::now_ns();
          std::string resp;
          if (!cc.call(req, &resp, &cerr_msg)) {
            ok = false;
            break;
          }
          commit_ms.push_back(obs::ns_to_seconds(obs::now_ns() - sent) * 1e3);
          if (resp != expected) {
            std::fprintf(stderr,
                         "serve_load: commit_mix commit %d MISMATCH\n"
                         "  got:  %.200s\n  want: %.200s\n",
                         e, resp.c_str(), expected.c_str());
            ++mismatches;
          }
        }
        if (!ok) ++transport;
        // Every commit's response arrived, so every publish happened
        // before this store: a read issued from here on pins the final
        // head and must be stamped mix_commits.
        commits_done.store(true, std::memory_order_release);
      });

      std::vector<std::thread> readers;
      readers.reserve(static_cast<std::size_t>(mix_readers));
      for (int c = 0; c < mix_readers; ++c) {
        readers.emplace_back([&, c] {
          StormOutcome& st = per[static_cast<std::size_t>(c)];
          server::Client client;
          std::string cerr_msg;
          if (!client.connect_tcp("127.0.0.1", mport, &cerr_msg)) {
            ++transport;
            return;
          }
          long last_epoch = 0;
          for (int i = 0;; ++i) {
            const bool done = commits_done.load(std::memory_order_acquire);
            const long seq = 100000 + static_cast<long>(c) * 100000 + i;
            const std::int64_t sent = obs::now_ns();
            std::string resp;
            if (!client.call(topk_request(seq, kq), &resp, &cerr_msg)) {
              ++transport;
              return;
            }
            st.lat_s.push_back(obs::ns_to_seconds(obs::now_ns() - sent));
            ++st.completed;
            const long epoch = parse_epoch(resp);
            const bool in_range = epoch >= last_epoch &&
                                  epoch <= mix_commits &&
                                  (!done || epoch == mix_commits);
            const std::string expected =
                in_range ? server::make_ok_response(
                               static_cast<std::uint64_t>(seq),
                               static_cast<std::uint64_t>(epoch),
                               result_at[static_cast<std::size_t>(epoch)])
                         : std::string();
            if (!in_range || resp != expected) {
              if (mismatches.fetch_add(1) == 0) {
                std::fprintf(stderr,
                             "serve_load: commit_mix read seq %ld MISMATCH "
                             "(epoch %ld, last %ld, done %d)\n"
                             "  got:  %.200s\n",
                             seq, epoch, last_epoch, static_cast<int>(done),
                             resp.c_str());
              }
            }
            last_epoch = epoch < last_epoch ? last_epoch : epoch;
            if (done && i + 1 >= mix_per_client) break;
          }
          final_epoch[static_cast<std::size_t>(c)] = last_epoch;
        });
      }
      committer.join();
      for (std::thread& t : readers) t.join();

      StormOutcome merged;
      merged.elapsed_s = obs::ns_to_seconds(obs::now_ns() - t0);
      for (StormOutcome& st : per) {
        merged.completed += st.completed;
        merged.lat_s.insert(merged.lat_s.end(), st.lat_s.begin(),
                            st.lat_s.end());
      }
      std::sort(merged.lat_s.begin(), merged.lat_s.end());
      merged.mismatches = mismatches.load();
      merged.transport_failures = transport.load();
      mix_row.out = merged;

      // Deterministic end state: every reader's last read ran after the
      // final commit, so it must have been stamped with the final epoch.
      bool converged = true;
      for (long e : final_epoch) converged = converged && e == mix_commits;

      const bool clean =
          converged && merged.mismatches == 0 &&
          merged.transport_failures == 0 &&
          merged.completed >= static_cast<long>(mix_readers) * mix_per_client;
      r.value("match", clean ? 1.0 : 0.0);
      r.value("final_epoch", static_cast<double>(mix_commits));
      r.value("commits", static_cast<double>(mix_commits));
      // The read count depends on how the storm interleaved with the
      // commits (readers run until the commits land), so it is telemetry,
      // not a gated value.
      r.telemetry("requests", static_cast<double>(merged.completed));
      std::sort(commit_ms.begin(), commit_ms.end());
      r.telemetry("commit_p50_ms", percentile(commit_ms, 0.50));
      r.telemetry("qps", merged.qps());
      r.telemetry("p50_ms", percentile(merged.lat_s, 0.50) * 1e3);
      r.telemetry("p99_ms", percentile(merged.lat_s, 0.99) * 1e3);
      report_serving_telemetry(r);

      msrv.request_shutdown();
      msrv.wait();
    });
    if (mix_ran) rows.push_back(mix_row);
  }

  std::printf("\n%-16s %8s %9s %10s %9s %9s %6s\n", "case", "clients",
              "requests", "qps", "p50(ms)", "p99(ms)", "match");
  for (const Row& row : rows) {
    std::printf("%-16s %8d %9ld %10.1f %9.2f %9.2f %6s\n", row.name.c_str(),
                row.clients, row.out.completed, row.out.qps(),
                percentile(row.out.lat_s, 0.50) * 1e3,
                percentile(row.out.lat_s, 0.99) * 1e3,
                row.out.mismatches == 0 && row.out.transport_failures == 0
                    ? "yes"
                    : "NO");
  }
  std::printf("\nExpected: match = yes everywhere (every served response "
              "byte-identical to the\nlocal one-shot expectation); qps "
              "plateaus once clients exceed shard workers.\n");
  std::fflush(stdout);
  return h.finish();
}
