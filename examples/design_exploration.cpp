// Design exploration: finding a "good" value of k — the paper's stated
// future work ("finding a 'good' value of k for reasonably fixing noise
// violations"). Sweeps the elimination cardinality, evaluates each winning
// set exactly, and reports the knee of the delay-vs-effort curve using a
// diminishing-returns rule: stop where the marginal gain of the next fix
// drops below a fraction of the average gain so far.
#include <cstdio>
#include <vector>

#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "session/analysis_session.hpp"
#include "topk/stages/baseline_stage.hpp"

using namespace tka;

int main() {
  gen::GeneratorParams params;
  params.name = "explore";
  params.num_gates = 120;
  params.target_couplings = 500;
  params.seed = 777;
  gen::GeneratedCircuit ckt = gen::generate_circuit(params);

  sta::DelayModel model(*ckt.netlist, ckt.parasitics);
  noise::AnalyticCouplingCalculator calc(ckt.parasitics, model);
  session::AnalysisSession session(*ckt.netlist, ckt.parasitics,
                                   model.options());
  noise::IterativeOptions it;
  it.sta = ckt.sta_options();

  const int max_k = 24;
  topk::TopkOptions opt;
  opt.k = max_k;
  opt.mode = topk::Mode::kElimination;
  opt.iterative.sta = ckt.sta_options();
  const topk::TopkResult res = session.run(opt);

  std::printf("design %s: all-aggressor delay %.4f ns, noiseless %.4f ns\n\n",
              ckt.netlist->name().c_str(), res.baseline_delay,
              res.reference_delay);
  std::printf("%4s %12s %12s %12s\n", "k", "delay (ns)", "gain (ps)",
              "gain/fix (ps)");

  std::vector<double> delay_at(max_k + 1, res.baseline_delay);
  double running = res.baseline_delay;
  for (int k = 1; k <= max_k; ++k) {
    double best = running;
    auto consider = [&](const std::vector<layout::CapId>& members) {
      if (members.empty()) return;
      const double d = topk::stages::BaselineStage::masked_delay(
          {ckt.netlist.get(), &ckt.parasitics, &model, &calc}, members,
          topk::Mode::kElimination, it);
      if (d < best) best = d;
    };
    consider(res.set_by_k[static_cast<size_t>(k) - 1]);
    for (const auto& m : res.finalists_by_k[static_cast<size_t>(k) - 1]) consider(m);
    running = best;
    delay_at[k] = best;
    const double total_gain = (res.baseline_delay - best) * 1e3;
    std::printf("%4d %12.4f %12.1f %12.1f\n", k, best,
                (delay_at[k - 1] - best) * 1e3, total_gain / k);
  }

  // Knee rule: smallest k whose next-step marginal gain falls below 25% of
  // the average gain per fix achieved so far.
  int good_k = max_k;
  for (int k = 1; k < max_k; ++k) {
    const double avg_gain = (res.baseline_delay - delay_at[k]) / k;
    const double next_gain = delay_at[k] - delay_at[k + 1];
    if (avg_gain > 0 && next_gain < 0.25 * avg_gain) {
      good_k = k;
      break;
    }
  }
  std::printf("\nsuggested k = %d: fixing %d couplings recovers %.1f ps "
              "(%.0f%% of the total noise);\nfurther fixes return <25%% of "
              "the average gain per fix.\n",
              good_k, good_k, (res.baseline_delay - delay_at[good_k]) * 1e3,
              100.0 * (res.baseline_delay - delay_at[good_k]) /
                  (res.baseline_delay - res.reference_delay));
  return 0;
}
