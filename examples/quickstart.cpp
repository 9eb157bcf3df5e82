// Quickstart: the whole API on a small hand-built design.
//
//   1. Build a netlist (the classic ISCAS-85 c17) from .bench text.
//   2. Place, route and extract coupling parasitics.
//   3. Run noise-aware timing (the iterative window/noise fixpoint).
//   4. Ask for the top-2 aggressor addition set and the top-2 elimination
//      set, and show what each does to the circuit delay.
#include <cstdio>

#include "io/bench_reader.hpp"
#include "layout/extractor.hpp"
#include "layout/placer.hpp"
#include "layout/router.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "session/analysis_session.hpp"
#include "sta/critical_path.hpp"

using namespace tka;

static const char* kC17 = R"(
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
)";

int main() {
  // 1. Netlist.
  auto nl = io::read_bench_string(kC17, "c17");
  std::printf("design %s: %zu gates, %zu nets\n", nl->name().c_str(),
              nl->num_gates(), nl->num_nets());

  // 2. Layout + extraction. Tighten the coupling window so even this tiny
  //    placement yields a handful of aggressor-victim couplings.
  layout::PlacerOptions place_opt;
  place_opt.row_pitch = 2.5;
  const layout::Placement placement = layout::grid_place(*nl, place_opt);
  const std::vector<layout::Route> routes = layout::route_all(*nl, placement);
  layout::ExtractorOptions ex;
  ex.max_coupling_dist = 10.0;
  const layout::Parasitics par = layout::extract(*nl, routes, ex);
  std::printf("extracted %zu coupling caps\n", par.num_couplings());

  // 3. Noise-aware timing.
  sta::DelayModel model(*nl, par);
  noise::AnalyticCouplingCalculator calc(par, model);
  const noise::CouplingMask all = noise::CouplingMask::all(par.num_couplings());
  const noise::NoiseReport report = noise::analyze_iterative(*nl, par, model, calc, all);
  std::printf("noiseless delay %.4f ns -> noisy delay %.4f ns "
              "(%d fixpoint iterations)\n",
              report.noiseless_delay, report.noisy_delay, report.iterations);

  const sta::StaResult sta_res = sta::run_sta(*nl, model);
  const sta::TimingPath crit = sta::critical_path(*nl, sta_res);
  std::printf("critical path:");
  for (net::NetId n : crit.nets) std::printf(" %s", nl->net(n).name.c_str());
  std::printf("\n\n");

  // 4. Top-k sets. A query runs on a session over copies of the design.
  for (const topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    topk::TopkOptions opt;
    opt.k = 2;
    opt.mode = mode;
    opt.beam_cap = 0;
    session::AnalysisSession session(*nl, par, model.options());
    const topk::TopkResult res = session.run(opt);
    std::printf("top-2 %s set:", mode == topk::Mode::kAddition ? "addition"
                                                               : "elimination");
    for (layout::CapId id : res.members) {
      const layout::CouplingCap& cc = par.coupling(id);
      std::printf("  (%s ~ %s, %.4f pF)", nl->net(cc.net_a).name.c_str(),
                  nl->net(cc.net_b).name.c_str(), cc.cap_pf);
    }
    std::printf("\n  circuit delay %.4f ns -> %.4f ns\n", res.baseline_delay,
                res.evaluated_delay);
  }
  return 0;
}
