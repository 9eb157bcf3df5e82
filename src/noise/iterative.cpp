#include "noise/iterative.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tka::noise {

NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& opt) {
  return analyze_iterative(nl, par, model, calc, mask, opt, nullptr);
}

NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& opt,
                              FixpointTrajectory* trajectory) {
  TKA_ASSERT(mask.size() == par.num_couplings());
  obs::ScopedSpan span("noise.fixpoint");
  static obs::Counter& c_runs = obs::registry().counter("noise.fixpoint_runs");
  static obs::Counter& c_iters =
      obs::registry().counter("noise.fixpoint_iterations");
  static obs::Counter& c_nonconv =
      obs::registry().counter("noise.fixpoint_nonconverged");
  static obs::Histogram& h_iters =
      obs::registry().histogram("noise.fixpoint_iters", 1.0, 64.0);
  c_runs.add(1);
  if (trajectory != nullptr) *trajectory = FixpointTrajectory{};

  NoiseReport report;
  NoiseAnalyzer analyzer(nl, par, model);

  const sta::StaResult base = sta::run_sta(nl, model, opt.sta);
  report.noiseless_windows = base.windows;
  report.noiseless_delay = base.max_lat;
  if (trajectory != nullptr) trajectory->base = base;

  // Convergence is judged relative to the circuit scale: demanding
  // sub-femtosecond stability on a long unbuffered path just burns
  // iterations on noise-floor creep.
  const double tol = std::max(kToleranceNs, 1e-5 * std::abs(base.max_lat));

  std::vector<double> bump(nl.num_nets(), 0.0);
  if (opt.pessimistic_start) {
    EnvelopeBuilder builder(nl, par, calc, base.windows);
    // Work-stealing chunks: upper-bound costs vary wildly per victim
    // (coupling counts differ by orders of magnitude), which static chunks
    // serialize on the unluckiest lane. Per-index slots + no reduction, so
    // the dynamic schedule cannot change the result.
    runtime::parallel_for(
        opt.threads, 0, nl.num_nets(), [&](std::size_t v) {
          bump[v] = analyzer.delay_noise_upper_bound(v, builder, mask);
        });
  }

  sta::StaResult current = base;
  bool converged = false;
  int iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    obs::ScopedSpan iter_span("noise.iteration");
    if (iter_span.recording()) {
      iter_span.arg("iter", static_cast<std::int64_t>(iter));
    }
    current = sta::run_sta(nl, model, opt.sta, &bump);
    if (trajectory != nullptr) {
      trajectory->bumps.push_back(bump);
      trajectory->windows.push_back(current.windows);
    }
    EnvelopeBuilder builder(nl, par, calc, current.windows);
    std::vector<double> next(nl.num_nets(), 0.0);
    // The relaxation sweep: every victim's new bump depends only on the
    // frozen `current` windows and `bump` of this iteration, so victims
    // are embarrassingly parallel; each writes its own slot.
    runtime::parallel_for(
        opt.threads, 0, nl.num_nets(), [&](std::size_t v) {
          // Anchor each victim at its upstream-noisy arrival *excluding its
          // own bump*: a net cannot dodge its own delay noise, and letting
          // it do so creates limit cycles on strongly coupled designs.
          const double t50 = current.windows[v].lat - bump[v];
          next[v] = analyzer.victim_delay_noise_at(v, builder, mask, t50);
        });
    // Convergence reduction on the calling thread, in index order.
    double max_change = 0.0;
    for (net::NetId v = 0; v < nl.num_nets(); ++v) {
      max_change = std::max(max_change, std::abs(next[v] - bump[v]));
    }
    bump = std::move(next);
    if (max_change < tol) {
      converged = true;
      ++iter;
      break;
    }
  }
  c_iters.add(static_cast<std::uint64_t>(iter));
  h_iters.observe(static_cast<double>(iter));
  if (!converged) {
    c_nonconv.add(1);
    log::warn() << "analyze_iterative: no convergence after " << kMaxIterations
                << " iterations (tol " << tol << " ns)";
  } else if (log::enabled(log::Level::kDebug)) {
    log::debug() << "analyze_iterative: converged after " << iter
                 << " iteration(s), tol " << tol << " ns";
  }

  const sta::StaResult final_sta = sta::run_sta(nl, model, opt.sta, &bump);
  if (trajectory != nullptr) {
    trajectory->bumps.push_back(bump);
    trajectory->windows.push_back(final_sta.windows);
    trajectory->final_sta = final_sta;
  }
  report.noisy_windows = final_sta.windows;
  report.delay_noise = std::move(bump);
  report.noisy_delay = final_sta.max_lat;
  report.worst_po = final_sta.worst_po;
  report.iterations = iter;
  report.converged = converged;
  return report;
}

}  // namespace tka::noise
