#include "noise/iterative.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "sta/incremental.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tka::noise {

/// Entry t holds bumps[t] and windows[t] == run_sta(bumps[t]).windows; the
/// last entry is the final (post-convergence) evaluation.
struct FixpointTrajectory {
  sta::StaResult base;                     ///< the noiseless STA
  std::vector<std::vector<double>> bumps;  ///< per-evaluation bump vectors
  std::vector<sta::WindowTable> windows;   ///< run_sta(bumps[t]).windows
};

namespace {

/// A recorded run to replay, and the edit made since it was recorded.
struct Replay {
  const FixpointTrajectory& ref;
  /// The edit's nets, ascending: their STA windows are re-propagated.
  std::vector<net::NetId> seeds;
  /// The seeds and their coupled partners: their relaxation is redone,
  /// since a partner's pulse or mask participation can change where no
  /// timing window moves.
  std::vector<char> near;
  /// Out, when given: nets whose noiseless window differs from the
  /// recorded one.
  std::vector<net::NetId>* changed_noiseless = nullptr;
};

/// The replay of `ref` after an edit of `dirty_nets` and of `dirty_caps`,
/// whose endpoints join the seeds.
Replay replay_of(const FixpointTrajectory& ref, const layout::Parasitics& par,
                 std::size_t num_nets, std::span<const net::NetId> dirty_nets,
                 std::span<const layout::CapId> dirty_caps) {
  Replay r{ref, {}, std::vector<char>(num_nets, 0)};
  auto seed_net = [&](net::NetId n) {
    TKA_ASSERT(n < num_nets);
    if (!r.near[n]) {
      r.near[n] = 1;
      r.seeds.push_back(n);
    }
  };
  for (net::NetId n : dirty_nets) seed_net(n);
  for (layout::CapId id : dirty_caps) {
    const layout::CouplingCap& cc = par.coupling(id);
    seed_net(cc.net_a);
    seed_net(cc.net_b);
  }
  std::sort(r.seeds.begin(), r.seeds.end());
  for (net::NetId n : r.seeds) {
    for (layout::CapId id : par.couplings_of(n)) {
      r.near[par.coupling(id).other(n)] = 1;
    }
  }
  return r;
}

/// The fixpoint loop. Without `replay` every STA is a full run_sta() and
/// every victim relaxes. With it, each STA evaluation adopts the recorded
/// one and re-propagates only the edit cone and the nets whose bump
/// differs, and each victim whose relaxation inputs are bitwise the
/// recorded ones reuses the recorded bump; past the recorded evaluations,
/// steps are cold. `record`, when given, receives the run's trajectory.
NoiseReport converge(const net::Netlist& nl, const layout::Parasitics& par,
                     const sta::DelayModel& model,
                     const CouplingCalculator& calc, const CouplingMask& mask,
                     const sta::StaOptions& sta_opt, int threads,
                     const Replay* replay, FixpointTrajectory* record) {
  TKA_ASSERT(mask.size() == par.num_couplings());
  const FixpointTrajectory* ref = replay != nullptr ? &replay->ref : nullptr;
  // Replays count apart from cold runs, so noise.fixpoint_* is cold work.
  obs::ScopedSpan span(ref != nullptr ? "noise.fixpoint_refresh"
                                      : "noise.fixpoint");
  static obs::Counter& c_runs = obs::registry().counter("noise.fixpoint_runs");
  static obs::Counter& c_iters =
      obs::registry().counter("noise.fixpoint_iterations");
  static obs::Counter& c_nonconv =
      obs::registry().counter("noise.fixpoint_nonconverged");
  static obs::Histogram& h_iters =
      obs::registry().histogram("noise.fixpoint_iters", 1.0, 64.0);
  static obs::Counter& c_refreshes =
      obs::registry().counter("noise.fixpoint_refreshes");
  static obs::Counter& c_refresh_iters =
      obs::registry().counter("noise.fixpoint_refresh_iterations");
  static obs::Counter& c_victims =
      obs::registry().counter("noise.fixpoint_refresh_victims");
  (ref != nullptr ? c_refreshes : c_runs).add(1);

  const std::size_t num_nets = nl.num_nets();
  NoiseReport report;
  NoiseAnalyzer analyzer(nl, par, model);

  sta::StaResult base;
  if (ref != nullptr) {
    sta::IncrementalSta inc(nl, model, sta_opt, ref->base, {});
    for (net::NetId n : replay->seeds) inc.invalidate_net(n);
    inc.update();
    if (replay->changed_noiseless != nullptr) {
      *replay->changed_noiseless = inc.last_changed();
    }
    base = inc.result();
  } else {
    base = sta::run_sta(nl, model, sta_opt);
  }
  report.noiseless_windows = base.windows;
  report.noiseless_delay = base.max_lat;

  // Convergence is judged relative to the circuit scale: demanding
  // sub-femtosecond stability on a long unbuffered path just burns
  // iterations on noise-floor creep.
  const double tol = std::max(kToleranceNs, 1e-5 * std::abs(base.max_lat));

  std::vector<double> bump(num_nets, 0.0);
  // Replay only: nets whose bump, or whose window in the current
  // evaluation, differs from the recorded run's at the same step.
  std::vector<char> bump_dirty(ref != nullptr ? num_nets : 0, 0);
  std::vector<char> win_dirty;
  sta::StaResult cur;

  // STA evaluation `idx` at `bump` into `cur`.
  const auto evaluate = [&](std::size_t idx) {
    if (ref != nullptr && idx < ref->windows.size()) {
      // The gate tables do not depend on the bumps, so the (edited) base's
      // fit any evaluation. The worklist then covers exactly the edit cone
      // plus every net whose bump differs from the recorded vector.
      sta::StaResult seed;
      seed.windows = ref->windows[idx];
      seed.gate_delay = base.gate_delay;
      seed.gate_trans = base.gate_trans;
      sta::IncrementalSta inc(nl, model, sta_opt, std::move(seed),
                              ref->bumps[idx]);
      for (net::NetId n : replay->seeds) inc.invalidate_net(n);
      for (net::NetId v = 0; v < num_nets; ++v) inc.set_lat_bump(v, bump[v]);
      inc.update();
      win_dirty.assign(num_nets, 0);
      for (net::NetId n : inc.last_changed()) win_dirty[n] = 1;
      cur = inc.result();
    } else {
      cur = sta::run_sta(nl, model, sta_opt, &bump);
      if (ref != nullptr) win_dirty.assign(num_nets, 1);
    }
    if (record != nullptr) {
      record->bumps.push_back(bump);
      record->windows.push_back(cur.windows);
    }
  };

  std::vector<net::NetId> redo;
  bool converged = false;
  int iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    std::optional<obs::ScopedSpan> iter_span;
    if (ref == nullptr) {
      iter_span.emplace("noise.iteration");
      if (iter_span->recording()) {
        iter_span->arg("iter", static_cast<std::int64_t>(iter));
      }
    }
    const auto idx = static_cast<std::size_t>(iter);
    evaluate(idx);
    EnvelopeBuilder builder(nl, par, calc, cur.windows);
    const bool reuse = ref != nullptr && idx + 1 < ref->bumps.size();
    std::vector<double> next =
        reuse ? ref->bumps[idx + 1] : std::vector<double>(num_nets, 0.0);
    // The relaxation: every victim's new bump depends only on the frozen
    // `cur` windows and `bump` of this iteration, so victims are
    // embarrassingly parallel; each writes its own slot.
    const auto relax = [&](std::size_t v) {
      // Anchor each victim at its upstream-noisy arrival *excluding its
      // own bump*: a net cannot dodge its own delay noise, and letting
      // it do so creates limit cycles on strongly coupled designs.
      const double t50 = cur.windows[v].lat - bump[v];
      next[v] = analyzer.victim_delay_noise_at(static_cast<net::NetId>(v),
                                               builder, mask, t50);
    };
    if (reuse) {
      // Victims whose relaxation inputs changed vs. the recorded step: the
      // edit neighborhood, a changed own bump, a changed own window, or a
      // changed aggressor window. Everyone else keeps the recorded bump.
      std::vector<char> dv = replay->near;
      for (net::NetId v = 0; v < num_nets; ++v) {
        if (bump_dirty[v]) dv[v] = 1;
        if (win_dirty[v]) {
          dv[v] = 1;
          for (layout::CapId id : par.couplings_of(v)) {
            dv[par.coupling(id).other(v)] = 1;
          }
        }
      }
      redo.clear();
      for (net::NetId v = 0; v < num_nets; ++v) {
        if (dv[v]) redo.push_back(v);
      }
      c_victims.add(redo.size());
      runtime::parallel_for(threads, 0, redo.size(),
                            [&](std::size_t i) { relax(redo[i]); });
      const std::vector<double>& recorded = ref->bumps[idx + 1];
      bump_dirty.assign(num_nets, 0);
      for (net::NetId v : redo) bump_dirty[v] = next[v] != recorded[v];
    } else {
      runtime::parallel_for(threads, 0, num_nets, relax);
      if (ref != nullptr) {
        c_victims.add(num_nets);
        bump_dirty.assign(num_nets, 1);
      }
    }
    // Convergence reduction on the calling thread, in index order (reused
    // entries are bit-equal to the recorded ones, so the max is too).
    double max_change = 0.0;
    for (net::NetId v = 0; v < num_nets; ++v) {
      max_change = std::max(max_change, std::abs(next[v] - bump[v]));
    }
    bump = std::move(next);
    if (max_change < tol) {
      converged = true;
      ++iter;
      break;
    }
  }
  if (ref != nullptr) {
    c_refresh_iters.add(static_cast<std::uint64_t>(iter));
  } else {
    c_iters.add(static_cast<std::uint64_t>(iter));
    h_iters.observe(static_cast<double>(iter));
    if (!converged) c_nonconv.add(1);
  }
  if (!converged) {
    log::warn() << "noise fixpoint: no convergence after " << kMaxIterations
                << " iterations (tol " << tol << " ns)";
  } else if (log::enabled(log::Level::kDebug)) {
    log::debug() << "noise fixpoint: converged after " << iter
                 << " iteration(s), tol " << tol << " ns";
  }

  evaluate(static_cast<std::size_t>(iter));
  if (record != nullptr) record->base = std::move(base);
  report.noisy_delay = cur.max_lat;
  report.worst_po = cur.worst_po;
  report.noisy_windows = std::move(cur.windows);
  report.delay_noise = std::move(bump);
  report.iterations = iter;
  report.converged = converged;
  return report;
}

}  // namespace

NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& opt) {
  return converge(nl, par, model, calc, mask, opt.sta, opt.threads, nullptr,
                  nullptr);
}

IncrementalFixpoint::IncrementalFixpoint(const net::Netlist& nl,
                                         const layout::Parasitics& par,
                                         const sta::DelayModel& model,
                                         const CouplingCalculator& calc,
                                         const IterativeOptions& options)
    : nl_(&nl), par_(&par), model_(&model), calc_(&calc), opt_(options) {}

IncrementalFixpoint::~IncrementalFixpoint() = default;

const NoiseReport& IncrementalFixpoint::recompute(const CouplingMask& mask) {
  auto traj = std::make_unique<FixpointTrajectory>();
  report_ = converge(*nl_, *par_, *model_, *calc_, mask, opt_.sta,
                     opt_.threads, nullptr, traj.get());
  traj_ = std::move(traj);
  changed_noiseless_.clear();
  changed_noisy_.clear();
  return report_;
}

const NoiseReport& IncrementalFixpoint::refresh(
    std::span<const net::NetId> dirty_nets,
    std::span<const layout::CapId> dirty_caps, const CouplingMask& mask) {
  TKA_ASSERT(primed());
  const std::size_t num_nets = nl_->num_nets();
  Replay replay = replay_of(*traj_, *par_, num_nets, dirty_nets, dirty_caps);
  replay.changed_noiseless = &changed_noiseless_;
  auto traj = std::make_unique<FixpointTrajectory>();
  NoiseReport next = converge(*nl_, *par_, *model_, *calc_, mask, opt_.sta,
                              opt_.threads, &replay, traj.get());
  changed_noisy_.clear();
  for (net::NetId v = 0; v < num_nets; ++v) {
    if (!(next.noisy_windows[v] == report_.noisy_windows[v]) ||
        next.delay_noise[v] != report_.delay_noise[v]) {
      changed_noisy_.push_back(v);
    }
  }
  report_ = std::move(next);
  traj_ = std::move(traj);
  return report_;
}

double IncrementalFixpoint::evaluate(std::span<const layout::CapId> members,
                                     const CouplingMask& mask,
                                     int threads) const {
  TKA_ASSERT(primed());
  const Replay replay = replay_of(*traj_, *par_, nl_->num_nets(), {}, members);
  return converge(*nl_, *par_, *model_, *calc_, mask, opt_.sta, threads,
                  &replay, nullptr)
      .noisy_delay;
}

}  // namespace tka::noise
