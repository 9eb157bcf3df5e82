// Aggressor report: per-victim noise triage for the nets on and near the
// critical path, plus design-database exports (SPEF-lite parasitics and a
// Graphviz view with the top-k set highlighted). The kind of report a
// signoff engineer reads before deciding what to shield.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "gen/circuit_generator.hpp"
#include "io/dot_writer.hpp"
#include "io/spef_lite.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/envelope_builder.hpp"
#include "noise/iterative.hpp"
#include "session/analysis_session.hpp"
#include "sta/critical_path.hpp"

using namespace tka;

int main() {
  gen::GeneratorParams params;
  params.name = "report";
  params.num_gates = 60;
  params.target_couplings = 200;
  params.seed = 4242;
  gen::GeneratedCircuit ckt = gen::generate_circuit(params);
  const net::Netlist& nl = *ckt.netlist;

  sta::DelayModel model(nl, ckt.parasitics);
  noise::AnalyticCouplingCalculator calc(ckt.parasitics, model);
  const noise::NoiseReport rep = noise::analyze_iterative(
      nl, ckt.parasitics, model, calc,
      noise::CouplingMask::all(ckt.parasitics.num_couplings()),
      [&] {
        noise::IterativeOptions it;
        it.sta = ckt.sta_options();
        return it;
      }());

  std::printf("design %s: noiseless %.4f ns, noisy %.4f ns\n\n",
              nl.name().c_str(), rep.noiseless_delay, rep.noisy_delay);

  // Rank victims by their delay noise and show each one's worst aggressors.
  std::vector<net::NetId> victims;
  for (net::NetId n = 0; n < nl.num_nets(); ++n) {
    if (rep.delay_noise[n] > 1e-6) victims.push_back(n);
  }
  std::sort(victims.begin(), victims.end(), [&](net::NetId a, net::NetId b) {
    return rep.delay_noise[a] > rep.delay_noise[b];
  });
  if (victims.size() > 8) victims.resize(8);

  noise::EnvelopeBuilder builder(nl, ckt.parasitics, calc, rep.noisy_windows);
  std::printf("worst victims (delay noise, worst aggressors by pulse peak):\n");
  for (net::NetId v : victims) {
    std::printf("  %-10s dn=%6.1f ps  window=[%.3f, %.3f]\n",
                nl.net(v).name.c_str(), rep.delay_noise[v] * 1e3,
                rep.noisy_windows[v].eat, rep.noisy_windows[v].lat);
    std::vector<std::pair<double, layout::CapId>> ranked;
    for (layout::CapId id : ckt.parasitics.couplings_of(v)) {
      ranked.emplace_back(builder.pulse_shape(v, id).peak, id);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    for (size_t i = 0; i < std::min<size_t>(3, ranked.size()); ++i) {
      const layout::CouplingCap& cc = ckt.parasitics.coupling(ranked[i].second);
      std::printf("      aggressor %-10s cap=%.4f pF  peak=%.3f V\n",
                  nl.net(cc.other(v)).name.c_str(), cc.cap_pf, ranked[i].first);
    }
  }

  // Top-5 elimination set, exported to a Graphviz view.
  session::AnalysisSession session(nl, ckt.parasitics, model.options());
  topk::TopkOptions opt;
  opt.k = 5;
  opt.mode = topk::Mode::kElimination;
  opt.iterative.sta = ckt.sta_options();
  const topk::TopkResult res = session.run(opt);
  std::printf("\ntop-5 elimination set (fixing these recovers %.1f ps):\n",
              (res.baseline_delay - res.evaluated_delay) * 1e3);
  for (layout::CapId id : res.members) {
    const layout::CouplingCap& cc = ckt.parasitics.coupling(id);
    std::printf("  %s ~ %s (%.4f pF)\n", nl.net(cc.net_a).name.c_str(),
                nl.net(cc.net_b).name.c_str(), cc.cap_pf);
  }

  {
    std::ofstream dot("aggressor_report.dot");
    io::write_dot(dot, nl, &ckt.parasitics, res.members);
  }
  io::write_spef_lite_file("aggressor_report.spef", nl, ckt.parasitics);
  std::printf("\nwrote aggressor_report.dot (top-k highlighted) and "
              "aggressor_report.spef\n");
  return 0;
}
