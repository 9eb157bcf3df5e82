// Ablation: pseudo-aggressor propagation (paper §3.1).
//
// With pseudo aggressors disabled, the engine only sees each victim's own
// primary couplings: delay noise accumulated along the victim's fanin cone
// is invisible, so the chosen top-k addition sets achieve less circuit
// delay. Also compares full-I-list propagation vs the winner-only variant
// of the paper's pseudo-code step 5.
//
// Harness cases: <ckt>/{pseudo_off,winner_only,full_ilist}; values are the
// achieved circuit delay and the discovered delay noise.
#include <cstdio>

#include "common.hpp"

using namespace tka;

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "ablation_pseudo");
  std::printf("Ablation: pseudo input aggressors (addition mode)\n\n");
  const int k = bench::scale() == 0 ? 6 : 10;
  const std::vector<std::string> circuits =
      bench::scale() == 0 ? std::vector<std::string>{"i1", "i2"}
                          : std::vector<std::string>{"i1", "i2", "i3", "i4"};

  for (const std::string& name : circuits) {
    bench::Design d = bench::build_design(name);
    struct Config {
      const char* case_suffix;
      const char* label;
      bool use_pseudo;
      bool full_ilist;
    };
    for (const Config& cfg :
         {Config{"pseudo_off", "pseudo off          ", false, true},
          Config{"winner_only", "pseudo winner-only  ", true, false},
          Config{"full_ilist", "pseudo full I-list  ", true, true}}) {
      double delay = 0.0, noise = 0.0;
      const bool ran = h.run_case(name + "/" + cfg.case_suffix,
                                  [&](bench::Reporter& r) {
        topk::TopkOptions opt =
            bench::engine_options(d, k, topk::Mode::kAddition);
        opt.use_pseudo = cfg.use_pseudo;
        opt.propagate_full_ilist = cfg.full_ilist;
        const topk::TopkResult res = bench::run_engine(d, opt);
        delay = bench::evaluate(d, res.members, topk::Mode::kAddition);
        noise = delay - res.baseline_delay;
        r.value("delay", delay);
        r.value("found_noise", noise);
      });
      if (!ran) continue;
      std::printf("%-4s k=%2d %s | delay=%.4f (found noise %.4f)\n",
                  name.c_str(), k, cfg.label, delay, noise);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: full I-list >= winner-only >= pseudo-off in "
              "discovered delay noise;\npseudo-off misses every cross-stage "
              "aggressor combination.\n");
  return h.finish();
}
