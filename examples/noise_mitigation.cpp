// Noise-mitigation loop: the paper's intended use of the top-k elimination
// set (§1). Each repair cycle asks for the top-k couplings to fix, fixes
// them (modeled as grounded-shield insertion: the coupling cap becomes ground cap), and
// re-runs the analysis — exactly the "each cycle of delay noise mitigation"
// flow. Watch the circuit delay walk from the fully-noisy delay toward the
// noiseless floor.
#include <cstdio>

#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "session/analysis_session.hpp"

using namespace tka;

int main() {
  gen::GeneratorParams params;
  params.name = "mitigate";
  params.num_gates = 150;
  params.target_couplings = 600;
  params.seed = 20240707;
  gen::GeneratedCircuit ckt = gen::generate_circuit(params);
  std::printf("design %s: %zu gates, %zu nets, %zu couplings\n\n",
              ckt.netlist->name().c_str(), ckt.netlist->num_gates(),
              ckt.netlist->num_nets(), ckt.parasitics.num_couplings());

  const int k_per_cycle = 5;
  const int cycles = 6;

  sta::DelayModel model(*ckt.netlist, ckt.parasitics);
  noise::AnalyticCouplingCalculator calc(ckt.parasitics, model);
  noise::IterativeOptions it;
  it.sta = ckt.sta_options();

  const double floor_delay =
      noise::analyze_iterative(*ckt.netlist, ckt.parasitics, model, calc,
                               noise::CouplingMask::none(ckt.parasitics.num_couplings()),
                               it)
          .noisy_delay;

  std::printf("%6s %14s %14s  %s\n", "cycle", "delay (ns)", "noise left",
              "fixed couplings");
  for (int cycle = 0; cycle <= cycles; ++cycle) {
    const noise::NoiseReport rep = noise::analyze_iterative(
        *ckt.netlist, ckt.parasitics, model, calc,
        noise::CouplingMask::all(ckt.parasitics.num_couplings()), it);
    std::printf("%6d %14.4f %14.4f", cycle, rep.noisy_delay,
                rep.noisy_delay - floor_delay);
    if (cycle == cycles) {
      std::printf("  (done)\n");
      break;
    }

    // Ask for this cycle's top-k elimination set...
    session::AnalysisSession session(*ckt.netlist, ckt.parasitics,
                                     model.options());
    topk::TopkOptions opt;
    opt.k = k_per_cycle;
    opt.mode = topk::Mode::kElimination;
    opt.iterative.sta = ckt.sta_options();
    const topk::TopkResult res = session.run(opt);

    // ... and fix those couplings in the physical database.
    std::printf("  ");
    for (layout::CapId id : res.members) {
      const layout::CouplingCap& cc = ckt.parasitics.coupling(id);
      std::printf("(%s~%s) ", ckt.netlist->net(cc.net_a).name.c_str(),
                  ckt.netlist->net(cc.net_b).name.c_str());
      ckt.parasitics.shield_coupling(id);
    }
    std::printf("\n");
  }
  std::printf("\nnoiseless floor: %.4f ns\n", floor_delay);
  return 0;
}
