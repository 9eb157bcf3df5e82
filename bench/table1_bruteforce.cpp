// Reproduces Table 1: validation of the proposed top-k algorithm against
// brute-force enumeration (elimination mode), including the brute-force
// runtime explosion beyond k = 3.
//
// The paper ran the comparison on a small benchmark with a 1800 s cap and
// saw (a) identical circuit delays for k <= 3 and (b) brute force failing
// to finish k = 4. We use a trimmed i1 (its largest couplings only) so the
// combinatorial blow-up happens at the same k with a friendlier timeout.
//
// Harness cases: one per k. Recorded values are the *proposed* delays
// (always) and the brute-force delays only for k small enough that the
// enumeration is guaranteed to finish inside the timeout on any machine —
// whether brute force beats a wall clock at larger k is machine-dependent
// and must not flap a regression gate (docs/BENCHMARKING.md).
#include <cstdio>

#include "common.hpp"
#include "topk/brute_force.hpp"

using namespace tka;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "table1_bruteforce");
  const bool smoke = bench::scale() == 0;
  const int max_k = smoke ? 3 : 5;
  const int max_bf_value_k = smoke ? 2 : 4;
  const double timeout_s = smoke ? 10.0 : 60.0;

  // Trimmed i1: keep the 36 largest couplings so C(r, k) stays printable.
  gen::GeneratorParams params;
  params.name = "i1t";
  params.num_gates = gen::benchmark_spec("i1").gates;
  params.seed = gen::benchmark_spec("i1").seed;
  params.target_couplings = 36;
  params.single_sink = true;  // the paper's single "sink node" formulation
  gen::GeneratedCircuit ckt = gen::generate_circuit(params);
  sta::DelayModel model(*ckt.netlist, ckt.parasitics);
  noise::AnalyticCouplingCalculator calc(ckt.parasitics, model);

  std::printf("Table 1: proposed vs brute force (elimination), circuit %s\n",
              params.name.c_str());
  std::printf("  gates=%zu nets=%zu couplings=%zu, brute-force timeout=%.0fs\n\n",
              ckt.netlist->num_gates(), ckt.netlist->num_nets(),
              ckt.parasitics.num_couplings(), timeout_s);
  std::printf("%3s | %-24s | %-24s | %s\n", "k", "brute force", "proposed",
              "speedup");
  std::printf("%3s | %10s %12s | %10s %12s |\n", "", "delay(ns)", "runtime(s)",
              "delay(ns)", "runtime(s)");
  std::printf("----+-------------------------+-------------------------+--------\n");

  for (int k = 1; k <= max_k; ++k) {
    topk::TopkResult res;
    std::optional<topk::BruteForceResult> bf;
    double proposed_s = 0.0;
    const bool ran = h.run_case(str::format("k%d", k), [&](bench::Reporter& r) {
      topk::TopkOptions opt;
      opt.k = k;
      opt.mode = topk::Mode::kElimination;
      opt.beam_cap = 0;    // exact enumeration
      opt.rerank_top = 64; // generous exact re-ranking for the validation
      opt.iterative.sta = ckt.sta_options();
      Timer t;
      session::AnalysisSession s(*ckt.netlist, ckt.parasitics, model.options());
      res = s.run(opt);
      proposed_s = t.seconds();
      r.value("proposed_delay", res.evaluated_delay);

      topk::BruteForceOptions bf_opt;
      bf_opt.k = k;
      bf_opt.mode = topk::Mode::kElimination;
      bf_opt.timeout_s = timeout_s;
      bf_opt.iterative.sta = ckt.sta_options();
      bf = topk::brute_force_topk(*ckt.netlist, ckt.parasitics, model, calc,
                                  bf_opt);
      if (k <= max_bf_value_k && bf.has_value() && !bf->timed_out) {
        r.value("bf_delay", bf->delay);
        r.value("delay_gap", res.evaluated_delay - bf->delay);
      }
    });
    if (!ran) continue;

    if (bf.has_value() && !bf->timed_out) {
      std::printf("%3d | %10.4f %12.3f | %10.4f %12.3f | %6.1fx\n", k, bf->delay,
                  bf->runtime_s, res.evaluated_delay, proposed_s,
                  bf->runtime_s / std::max(proposed_s, 1e-4));
    } else {
      std::printf("%3d | %10s %12s | %10.4f %12.3f | %6s\n", k, "-",
                  "timeout", res.evaluated_delay, proposed_s, "-");
    }
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper): identical delays for k <= 3; brute "
              "force times out as k grows;\n~2 orders of magnitude speedup "
              "where both finish.\n");
  return h.finish();
}
