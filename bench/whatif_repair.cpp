// What-if repair loop: incremental session queries vs cold re-runs.
//
// The workload is the noise-repair loop a router or ECO flow runs: analyze,
// fix the worst coupling the report names (decouple it), re-analyze, repeat.
// The circuit models the setting that loop lives in — a routing channel of
// parallel buffer chains, segmented into independent groups (separate
// routing regions): chains couple to their neighbors within a group, never
// across groups. A repair therefore perturbs one group's cone while every
// other group's windows are bit-for-bit unchanged — the locality the
// session's change-driven invalidation exists to exploit. Each case plays
// the same N-step loop twice on identical designs —
//
//   cold:    a fresh one-shot session run after every edit (everything
//            recomputed from scratch), and
//   session: one priming AnalysisSession::run, then one what_if per edit
//            (baseline refreshed incrementally, only the edit group's
//            victims re-enumerated).
//
// The two paths must agree bit-for-bit at every step (`match` = 1); the
// reported delays come from the session path and gate the regression
// baseline. The per-query speedup (cold run time / what_if time, priming
// excluded on the session side) is printed and summarized in
// `query_speedup`; only the deterministic values and counters gate.
#include <cstdio>
#include <memory>
#include <string>

#include "channel.hpp"
#include "common.hpp"
#include "session/analysis_session.hpp"

using namespace tka;
using bench::Channel;
using bench::channel_options;
using bench::make_channel;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "whatif_repair");
  const int k = bench::scale() == 0 ? 6 : 10;
  const int steps = bench::scale() == 0 ? 5 : 8;
  struct Spec {
    std::string name;
    int groups, chains, depth;
  };
  const std::vector<Spec> specs =
      bench::scale() == 0
          ? std::vector<Spec>{{"chan8x4", 8, 4, 10}, {"chan12x4", 12, 4, 12}}
          : std::vector<Spec>{{"chan8x4", 8, 4, 10},
                              {"chan12x4", 12, 4, 12},
                              {"chan16x5", 16, 5, 14},
                              {"chan24x5", 24, 5, 16}};

  std::printf("What-if repair loop: %d decoupling steps, top-%d elimination "
              "per step\n", steps, k);

  struct Row {
    std::string name;
    double cold_s, warm_s, speedup;
    bool all_match;
  };
  std::vector<Row> rows;

  for (const Spec& spec : specs) {
    Row row{spec.name, 0.0, 0.0, 0.0, true};
    const bool ran = h.run_case(spec.name, [&](bench::Reporter& r) {
      // Cold path: one design serves all steps — each edit lands in the
      // parasitics, and each step runs a fresh session over copies of them
      // that recomputes the world from scratch.
      Channel cold = make_channel(spec.groups, spec.chains, spec.depth);
      const topk::TopkOptions opt = channel_options(cold, k);
      auto cold_run = [&] {
        session::AnalysisSession s(*cold.netlist, cold.parasitics, {});
        return s.run(opt);
      };

      Timer cold_timer;
      std::vector<topk::TopkResult> cold_res;
      cold_res.push_back(cold_run());
      for (int s = 0; s < steps; ++s) {
        cold.parasitics.zero_coupling(cold_res.back().members.front());
        cold_res.push_back(cold_run());
      }
      row.cold_s = cold_timer.seconds();

      // Session path: same spec, private editable copies, one priming run;
      // only the what_if queries are timed against the cold re-runs.
      Channel base = make_channel(spec.groups, spec.chains, spec.depth);
      const topk::TopkOptions sopt = channel_options(base, k);
      session::AnalysisSession session(
          *base.netlist, base.parasitics, {},
          session::SessionOptions{.retain_candidates = true});
      std::vector<topk::TopkResult> warm_res;
      warm_res.push_back(session.run(sopt));
      Timer warm_timer;
      for (int s = 0; s < steps; ++s) {
        session::WhatIfEdit edit;
        edit.zero_couplings = {warm_res.back().members.front()};
        warm_res.push_back(session.what_if(edit));
      }
      row.warm_s = warm_timer.seconds();
      // Per-query comparison: N what_if queries vs N cold re-runs (the
      // first cold run is the shared starting point both paths pay once).
      const double cold_requery_s = row.cold_s * steps / (steps + 1);
      row.speedup = row.warm_s > 0.0 ? cold_requery_s / row.warm_s : 0.0;

      // Identity gate: the warm trajectory must be the cold one, exactly.
      row.all_match = true;
      for (int s = 0; s <= steps; ++s) {
        row.all_match = row.all_match &&
                        warm_res[s].members == cold_res[s].members &&
                        warm_res[s].evaluated_delay == cold_res[s].evaluated_delay;
      }
      r.value("match", row.all_match ? 1.0 : 0.0);
      for (int s = 0; s <= steps; ++s) {
        r.value(str::format("delay_step%d", s), warm_res[s].evaluated_delay);
      }
      r.value("repaired_delta",
              warm_res.front().evaluated_delay - warm_res.back().evaluated_delay);
    });
    if (ran) rows.push_back(row);
  }

  std::printf("\n%10s %12s %12s %10s %7s\n", "ckt", "cold(s)", "session(s)",
              "speedup", "match");
  for (const Row& row : rows) {
    std::printf("%10s %12.3f %12.3f %9.1fx %7s\n", row.name.c_str(),
                row.cold_s, row.warm_s, row.speedup, row.all_match ? "yes" : "NO");
  }
  std::printf("\nExpected: what_if >= 5x over a cold re-run on the smoke "
              "circuits (a repair\nperturbs one channel group of many), "
              "match = yes everywhere (bit-identical\ncontract).\n");
  std::fflush(stdout);
  return h.finish();
}
