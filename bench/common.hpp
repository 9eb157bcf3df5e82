// Shared suite construction and engine presets for the bench binaries.
// The repetition loop, CLI flags, observability hookup and JSON results
// live in harness/harness.hpp — every bench main constructs a
// bench::Harness first and drives its cases through Harness::run_case.
//
// Scale (from --smoke / --scale, falling back to TKA_BENCH_SCALE):
//   0 = quick   (small circuits, small k; CI-friendly — the smoke tier)
//   1 = default (full i1..i10 suite, k up to 50)
//   2 = full    (larger beams, closer to exhaustive settings)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "gen/benchmark_suite.hpp"
#include "harness/harness.hpp"
#include "noise/coupling_calc.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "session/analysis_session.hpp"
#include "sta/analyzer.hpp"
#include "topk/stages/baseline_stage.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace tka::bench {

/// Bench scale: the live Harness's setting, else TKA_BENCH_SCALE, else 1.
inline int scale() { return active_scale(); }

/// Circuits to run at the current scale.
inline std::vector<std::string> suite_circuits() {
  if (scale() == 0) return {"i1", "i2", "i3", "i4"};
  return {"i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9", "i10"};
}

/// Max cardinality for the Table-2 style sweeps.
inline int suite_max_k() { return scale() == 0 ? 20 : 50; }

/// The k columns reported (paper: 5,10,20,30,40,50).
inline std::vector<int> suite_k_columns() {
  if (scale() == 0) return {5, 10, 15, 20};
  return {5, 10, 20, 30, 40, 50};
}

/// A built design plus the delay model and coupling calculator that
/// evaluate() and the standalone pulse comparisons read.
struct Design {
  gen::GeneratedCircuit circuit;
  std::unique_ptr<sta::DelayModel> model;
  std::unique_ptr<noise::AnalyticCouplingCalculator> calc;
  double noiseless_delay = 0.0;
};

inline Design build_design(const std::string& name) {
  Design d;
  d.circuit = gen::build_benchmark(gen::benchmark_spec(name));
  d.model = std::make_unique<sta::DelayModel>(*d.circuit.netlist, d.circuit.parasitics);
  d.calc = std::make_unique<noise::AnalyticCouplingCalculator>(d.circuit.parasitics,
                                                               *d.model);
  const sta::StaResult base =
      sta::run_sta(*d.circuit.netlist, *d.model, d.circuit.sta_options());
  d.noiseless_delay = base.max_lat;
  return d;
}

/// Engine preset scaled to the circuit: exact settings on small designs,
/// beam + near-critical restriction on large ones.
inline topk::TopkOptions engine_options(const Design& d, int k, topk::Mode mode) {
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = mode;
  opt.iterative.sta = d.circuit.sta_options();
  const size_t caps = d.circuit.parasitics.num_couplings();
  if (caps > 5000) {
    opt.beam_cap = scale() == 2 ? 24 : 12;
    opt.max_primary_per_victim = 10;
    opt.victim_slack_threshold = 0.10 * d.noiseless_delay;
  } else if (caps > 800) {
    opt.beam_cap = scale() == 2 ? 32 : 16;
    opt.max_primary_per_victim = 12;
    opt.victim_slack_threshold = 0.20 * d.noiseless_delay;
  } else {
    opt.beam_cap = scale() == 2 ? 64 : 32;
  }
  opt.reevaluate = false;  // benches evaluate the k-points they report
  return opt;
}

/// One-shot engine run: a fresh session over copies of the design.
inline topk::TopkResult run_engine(const Design& d,
                                   const topk::TopkOptions& opt) {
  session::AnalysisSession s(*d.circuit.netlist, d.circuit.parasitics,
                             d.model->options());
  return s.run(opt);
}

/// Circuit delay with exactly `members` active (addition) or with `members`
/// removed from the full set (elimination), via the fixpoint on `threads`
/// workers (0 = resolve from TKA_THREADS / hardware).
inline double evaluate(const Design& d, std::span<const layout::CapId> members,
                       topk::Mode mode, int threads = 0) {
  noise::IterativeOptions it;
  it.sta = d.circuit.sta_options();
  it.threads = threads;
  return topk::stages::BaselineStage::masked_delay(
      {d.circuit.netlist.get(), &d.circuit.parasitics, d.model.get(),
       d.calc.get()},
      members, mode, it);
}

/// Exact delay at cardinality k: evaluates the winner plus the stored
/// runner-up finalists and keeps the true best (the engine's estimator
/// ranks conservatively, especially in elimination mode). A k-set can
/// always extend a better (k-1)-set with one more coupling, so the result
/// is clamped monotone against `running` (pass the previous column's value,
/// or the baseline for the first column).
inline double evaluate_at_k(const Design& d, const topk::TopkResult& res, int k,
                            topk::Mode mode, double running) {
  const size_t idx = static_cast<size_t>(k) - 1;
  const bool addition = (mode == topk::Mode::kAddition);
  // Dedup the winner + finalists in order, then evaluate the fixpoints in
  // parallel (each one serial inside) and reduce in candidate order — the
  // reported delay is identical for any TKA_THREADS.
  std::vector<const std::vector<layout::CapId>*> cands;
  auto consider = [&](const std::vector<layout::CapId>& members) {
    if (members.empty()) return;
    for (const auto* seen : cands) {
      if (*seen == members) return;
    }
    cands.push_back(&members);
  };
  consider(res.set_by_k[idx]);
  for (const auto& members : res.finalists_by_k[idx]) consider(members);

  std::vector<double> delays(cands.size(), 0.0);
  runtime::parallel_for(0, 0, cands.size(), [&](size_t ci) {
    delays[ci] = evaluate(d, *cands[ci], mode, /*threads=*/1);
  });
  double best = running;
  for (double delay : delays) {
    if (addition ? delay > best : delay < best) best = delay;
  }
  return best;
}

inline const char* mode_name(topk::Mode mode) {
  return mode == topk::Mode::kAddition ? "addition" : "elimination";
}

/// Shared Table-2 driver: the addition and elimination benches differ only
/// in engine mode and header strings. One harness case per circuit; the
/// timed body is the engine run plus the exact per-column re-evaluations.
/// Values recorded per case: delay_k<k> for each reported column plus the
/// two endpoint delays and the list-growth statistics.
inline int run_table2(int argc, char* const* argv, topk::Mode mode) {
  const bool addition = (mode == topk::Mode::kAddition);
  Harness h(argc, argv,
            addition ? "table2_addition" : "table2_elimination");
  const std::vector<int> ks = suite_k_columns();
  const int max_k = suite_max_k();

  std::printf("Table 2 (%s): circuit delay %s the top-k %s set\n\n",
              mode_name(mode), addition ? "with only" : "after fixing",
              mode_name(mode));
  std::printf("%-4s %6s %6s %6s | %9s", "ckt", "gates", "nets", "ccaps",
              addition ? "no agg" : "all agg");
  for (int k : ks) std::printf(" %8s%-2d", "k=", k);
  std::printf(" %9s | runtime(s):", addition ? "all agg" : "no agg");
  for (int k : ks) std::printf(" %8s%-2d", "k=", k);
  std::printf("\n");

  for (const std::string& name : suite_circuits()) {
    Design d = build_design(name);
    topk::TopkResult res;
    std::vector<double> delays;
    const bool ran = h.run_case(name, [&](Reporter& r) {
      topk::TopkOptions opt = engine_options(d, max_k, mode);
      res = run_engine(d, opt);
      delays.clear();
      double running = res.baseline_delay;
      for (int k : ks) {
        running = evaluate_at_k(d, res, k, mode, running);
        delays.push_back(running);
        r.value(str::format("delay_k%d", k), running);
      }
      r.value("baseline_delay", res.baseline_delay);
      r.value("reference_delay", res.reference_delay);
      r.value("sets_generated", static_cast<double>(res.stats.sets_generated));
      r.value("max_list_size", static_cast<double>(res.stats.max_list_size));
    });
    if (!ran) continue;

    std::printf("%-4s %6zu %6zu %6zu | %9.4f", name.c_str(),
                d.circuit.netlist->num_gates(), d.circuit.netlist->num_nets(),
                d.circuit.parasitics.num_couplings(), res.baseline_delay);
    for (double delay : delays) std::printf(" %10.4f", delay);
    std::printf(" %9.4f |            ", res.reference_delay);
    for (int k : ks) {
      std::printf(" %10.3f", res.stats.runtime_by_k[static_cast<size_t>(k) - 1]);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (addition) {
    std::printf("\nExpected shape (paper): delay rises from the no-aggressor "
                "baseline toward the all-aggressor\ndelay as k grows; runtime "
                "grows mildly (sub-exponentially) with k and with circuit "
                "size.\n");
  } else {
    std::printf("\nExpected shape (paper): delay falls from the all-aggressor "
                "baseline toward the no-aggressor\ndelay as k grows; fixing "
                "the first few couplings buys the largest improvement.\n");
  }
  return h.finish();
}

}  // namespace tka::bench
