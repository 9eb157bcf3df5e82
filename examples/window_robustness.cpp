// Window-robustness study: how stable is the top-k elimination set under
// input-arrival uncertainty?
//
// Timing windows depend on input constraints, which are rarely exact at the
// point in the flow where crosstalk is fixed. This example Monte-Carlo
// samples the primary-input arrivals, re-runs the noise fixpoint for each
// sample with and without the (nominally chosen) top-k fix applied, and
// reports the delay distributions — showing that the set chosen at the
// nominal corner keeps most of its value across the window ensemble.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "session/analysis_session.hpp"
#include "util/rng.hpp"

using namespace tka;

namespace {

struct Stats {
  double mean = 0.0;
  double p95 = 0.0;
  double worst = 0.0;
};

Stats summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Stats s;
  for (double v : samples) s.mean += v;
  s.mean /= static_cast<double>(samples.size());
  s.p95 = samples[samples.size() * 95 / 100];
  s.worst = samples.back();
  return s;
}

}  // namespace

int main() {
  gen::GeneratorParams params;
  params.name = "robust";
  params.num_gates = 100;
  params.target_couplings = 400;
  params.seed = 31337;
  gen::GeneratedCircuit ckt = gen::generate_circuit(params);

  sta::DelayModel model(*ckt.netlist, ckt.parasitics);
  noise::AnalyticCouplingCalculator calc(ckt.parasitics, model);

  // Choose the fix at the nominal corner.
  const int k = 8;
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = topk::Mode::kElimination;
  opt.iterative.sta = ckt.sta_options();
  session::AnalysisSession session(*ckt.netlist, ckt.parasitics,
                                   model.options());
  const topk::TopkResult nominal = session.run(opt);
  std::printf("nominal corner: all-aggressor %.4f ns -> fixed %.4f ns "
              "(top-%d set)\n\n",
              nominal.baseline_delay, nominal.evaluated_delay, k);

  // Monte-Carlo over input arrivals: jitter every PI window by up to +/-50%
  // of the nominal spread.
  const int samples = 40;
  Rng rng(99);
  std::vector<double> unfixed;
  std::vector<double> fixed;
  noise::CouplingMask mask_all =
      noise::CouplingMask::all(ckt.parasitics.num_couplings());
  noise::CouplingMask mask_fixed = mask_all;
  for (layout::CapId id : nominal.members) mask_fixed.set(id, false);

  for (int s = 0; s < samples; ++s) {
    std::vector<sta::InputArrival> jittered = ckt.arrivals;
    for (net::NetId n : ckt.netlist->primary_inputs()) {
      const double scale = rng.next_double(0.5, 1.5);
      jittered[n].eat *= scale;
      jittered[n].lat = jittered[n].eat +
                        (ckt.arrivals[n].lat - ckt.arrivals[n].eat) *
                            rng.next_double(0.5, 1.5);
    }
    noise::IterativeOptions it;
    const std::vector<sta::InputArrival>* table = &jittered;
    it.sta.input_arrival = [table](net::NetId n) {
      return n < table->size() ? (*table)[n] : sta::InputArrival{};
    };
    unfixed.push_back(noise::analyze_iterative(*ckt.netlist, ckt.parasitics,
                                               model, calc, mask_all, it)
                          .noisy_delay);
    fixed.push_back(noise::analyze_iterative(*ckt.netlist, ckt.parasitics,
                                             model, calc, mask_fixed, it)
                        .noisy_delay);
  }

  const Stats u = summarize(unfixed);
  const Stats f = summarize(fixed);
  std::printf("%-12s %10s %10s %10s\n", "", "mean", "p95", "worst");
  std::printf("%-12s %10.4f %10.4f %10.4f\n", "unfixed", u.mean, u.p95, u.worst);
  std::printf("%-12s %10.4f %10.4f %10.4f\n", "fixed", f.mean, f.p95, f.worst);
  std::printf("\nmean improvement across the window ensemble: %.1f ps "
              "(nominal promised %.1f ps)\n",
              (u.mean - f.mean) * 1e3,
              (nominal.baseline_delay - nominal.evaluated_delay) * 1e3);
  return 0;
}
