// Reproduces Figure 10: convergence of the top-k addition and elimination
// circuit delays toward each other as k grows (circuits i1 and i10).
//
// One engine run per (circuit, mode) at the maximum k yields the whole
// curve; each reported point is the honest re-evaluated circuit delay with
// that cardinality's winning set applied.
//
// Harness cases: one per circuit covering both modes; values are the two
// curves (add_k<k> / elim_k<k>) plus the endpoint delays.
#include <cstdio>

#include "common.hpp"

using namespace tka;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "fig10_convergence");
  const int max_k = bench::scale() == 0 ? 25 : 75;
  const int step = bench::scale() == 0 ? 4 : 5;
  const std::vector<std::string> circuits =
      bench::scale() == 0 ? std::vector<std::string>{"i1"}
                          : std::vector<std::string>{"i1", "i10"};

  std::printf("Figure 10: top-k addition vs elimination delay convergence "
              "(k = 1..%d)\n", max_k);

  for (const std::string& name : circuits) {
    bench::Design d = bench::build_design(name);
    struct Point {
      int k;
      double add, elim;
    };
    std::vector<Point> curve;
    double no_agg = 0.0, all_agg = 0.0;
    const bool ran = h.run_case(name, [&](bench::Reporter& r) {
      const topk::TopkResult add = bench::run_engine(d, 
          bench::engine_options(d, max_k, topk::Mode::kAddition));
      const topk::TopkResult elim = bench::run_engine(d, 
          bench::engine_options(d, max_k, topk::Mode::kElimination));
      no_agg = add.baseline_delay;
      all_agg = elim.baseline_delay;
      r.value("no_aggressor_delay", no_agg);
      r.value("all_aggressor_delay", all_agg);
      curve.clear();
      double run_a = add.baseline_delay;
      double run_e = elim.baseline_delay;
      for (int k = 1; k <= max_k; k += (k == 1 ? step - 1 : step)) {
        run_a = bench::evaluate_at_k(d, add, k, topk::Mode::kAddition, run_a);
        run_e = bench::evaluate_at_k(d, elim, k, topk::Mode::kElimination, run_e);
        curve.push_back({k, run_a, run_e});
        r.value(str::format("add_k%d", k), run_a);
        r.value(str::format("elim_k%d", k), run_e);
      }
    });
    if (!ran) continue;

    std::printf("\n%s: no-aggressor delay %.4f ns, all-aggressor delay %.4f "
                "ns\n", name.c_str(), no_agg, all_agg);
    std::printf("%6s %14s %16s\n", "k", "addition(ns)", "elimination(ns)");
    for (const Point& p : curve) {
      std::printf("%6d %14.4f %16.4f\n", p.k, p.add, p.elim);
    }
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper): the addition curve rises from the "
              "no-aggressor delay, the\nelimination curve falls from the "
              "all-aggressor delay, and the two approach each\nother as k "
              "grows.\n");
  return h.finish();
}
