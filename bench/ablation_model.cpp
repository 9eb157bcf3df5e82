// Ablation: analytic (closed-form) vs simulation-backed (MNA coupled-RC)
// noise-pulse characterization, and the false-aggressor prefilter.
//
// The paper's engineering decision (§2) is to use the linear framework for
// runtime; this bench quantifies what that costs in pulse accuracy on real
// couplings and what the prefilter saves.
//
// Harness cases: pulse_accuracy (analytic-vs-MNA ratios over every i1
// coupling), filter/<ckt> (prefilter pruning + engine effect), and
// nonlinear_holder (linear vs square-law glitch peaks).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "circuit/coupled_rc.hpp"
#include "common.hpp"
#include "noise/envelope_builder.hpp"
#include "noise/noise_analyzer.hpp"

using namespace tka;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "ablation_model");
  std::printf("Ablation: coupling calculators and false-aggressor filter\n\n");

  // --- Pulse accuracy: analytic vs MNA on every coupling of i1. ---
  {
    bench::Design d = bench::build_design("i1");
    noise::SimCouplingCalculator sim(*d.circuit.netlist, d.circuit.parasitics,
                                     *d.model);
    const sta::StaResult sta_res =
        sta::run_sta(*d.circuit.netlist, *d.model, d.circuit.sta_options());

    std::vector<double> ratios;
    double ana_time = 0.0, sim_time = 0.0;
    const bool ran = h.run_case("pulse_accuracy", [&](bench::Reporter& r) {
      ratios.clear();
      ana_time = sim_time = 0.0;
      for (layout::CapId id = 0; id < d.circuit.parasitics.num_couplings();
           ++id) {
        const layout::CouplingCap& cc = d.circuit.parasitics.coupling(id);
        const net::NetId victim = cc.net_a;
        const net::NetId agg = cc.net_b;
        const double tr = sta_res.windows[agg].trans_late;
        Timer t;
        const double pa = d.calc->pulse(victim, id, tr).peak;
        ana_time += t.seconds();
        t.reset();
        const double ps = sim.pulse(victim, id, tr).peak;
        sim_time += t.seconds();
        if (ps > 1e-6) ratios.push_back(pa / ps);
      }
      std::sort(ratios.begin(), ratios.end());
      r.value("couplings_compared", static_cast<double>(ratios.size()));
      r.value("ratio_median", ratios[ratios.size() / 2]);
      r.value("ratio_p10", ratios[ratios.size() / 10]);
      r.value("ratio_p90", ratios[9 * ratios.size() / 10]);
    });
    if (ran) {
      std::printf("i1 pulse peaks over %zu couplings: analytic/simulated ratio "
                  "median=%.2f p10=%.2f p90=%.2f\n",
                  ratios.size(), ratios[ratios.size() / 2],
                  ratios[ratios.size() / 10], ratios[9 * ratios.size() / 10]);
      std::printf("characterization time: analytic %.4fs vs MNA %.3fs (%.0fx)\n\n",
                  ana_time, sim_time, sim_time / std::max(ana_time, 1e-6));
    }
  }

  // --- False-aggressor filter effect. ---
  const std::vector<std::string> filter_circuits =
      bench::scale() == 0 ? std::vector<std::string>{"i1"}
                          : std::vector<std::string>{"i1", "i3", "i5"};
  for (const std::string& name : filter_circuits) {
    bench::Design dd = bench::build_design(name);
    const sta::StaResult sr =
        sta::run_sta(*dd.circuit.netlist, *dd.model, dd.circuit.sta_options());
    noise::EnvelopeBuilder builder(*dd.circuit.netlist, dd.circuit.parasitics,
                                   *dd.calc, sr.windows);
    noise::NoiseAnalyzer analyzer(*dd.circuit.netlist, dd.circuit.parasitics,
                                  *dd.model);
    const int k = 8;
    size_t filtered = 0, sides = 0;
    double est_on = 0.0, est_off = 0.0;
    const noise::CouplingMask all =
        noise::CouplingMask::all(dd.circuit.parasitics.num_couplings());
    const bool ran = h.run_case("filter/" + name, [&](bench::Reporter& r) {
      filtered = sides = 0;
      for (net::NetId v = 0; v < dd.circuit.netlist->num_nets(); ++v) {
        const double ub = analyzer.delay_noise_upper_bound(v, builder, all);
        for (layout::CapId id : dd.circuit.parasitics.couplings_of(v)) {
          ++sides;
          filtered += noise::is_false_aggressor(dd.circuit.parasitics, builder,
                                                v, id, ub);
        }
      }
      r.value("sides_pruned", static_cast<double>(filtered));
      r.value("sides_total", static_cast<double>(sides));
      for (bool use_filter : {true, false}) {
        topk::TopkOptions opt =
            bench::engine_options(dd, k, topk::Mode::kAddition);
        opt.use_filter = use_filter;
        const topk::TopkResult res = bench::run_engine(dd, opt);
        (use_filter ? est_on : est_off) = res.estimated_delay;
        r.value(use_filter ? "est_delay_filter_on" : "est_delay_filter_off",
                res.estimated_delay);
      }
    });
    if (!ran) continue;
    std::printf("%-4s filter: %zu of %zu (victim,cap) sides pruned (%.1f%%)\n",
                name.c_str(), filtered, sides, 100.0 * filtered / sides);
    std::printf("  est delay k=%d: filter on %.4f / off %.4f\n", k, est_on,
                est_off);
    std::fflush(stdout);
  }

  // --- Linear vs non-linear victim holder (the paper's future work). ---
  {
    std::vector<std::pair<double, double>> rows;  // (cc, lin), ratio via values
    std::vector<double> ratios;
    const bool ran = h.run_case("nonlinear_holder", [&](bench::Reporter& r) {
      rows.clear();
      ratios.clear();
      for (double cc : {0.005, 0.01, 0.02, 0.04, 0.08}) {
        circuit::CoupledRcParams p;
        p.cc = cc;
        p.agg_trans = 0.05;
        const double lin = circuit::simulate_noise_pulse(p).peak();
        const double nl =
            circuit::simulate_noise_pulse_nonlinear(p, 0.5 * p.vdd).peak();
        rows.emplace_back(cc, lin);
        ratios.push_back(nl / lin);
        r.value(str::format("sqlaw_ratio_cc%g", cc), nl / lin);
      }
    });
    if (ran) {
      std::printf("\nNon-linear holding device vs linear small-signal model "
                  "(coupled-RC template):\n");
      std::printf("%10s %12s %10s\n", "Cc (pF)", "linear (V)", "ratio");
      for (size_t i = 0; i < rows.size(); ++i) {
        std::printf("%10.3f %12.4f %9.2fx\n", rows[i].first, rows[i].second,
                    ratios[i]);
      }
    }
  }

  std::printf("\nExpected shape: closed-form peaks within ~2x of simulation at "
              ">100x lower cost; the\nfilter prunes a large share of sides "
              "without changing the found delay; the square-law\nholder "
              "matches the linear model for small glitches and exceeds it as "
              "the glitch grows\n(the device weakens off its bias point) — "
              "the accuracy gap motivating ref [9]-style\nnon-linear models.\n");
  return h.finish();
}
