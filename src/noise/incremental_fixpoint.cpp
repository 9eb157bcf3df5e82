#include "noise/incremental_fixpoint.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "sta/incremental.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tka::noise {

IncrementalFixpoint::IncrementalFixpoint(const net::Netlist& nl,
                                         const layout::Parasitics& par,
                                         const sta::DelayModel& model,
                                         const CouplingCalculator& calc,
                                         const IterativeOptions& options)
    : nl_(&nl), par_(&par), model_(&model), calc_(&calc), opt_(options) {}

const NoiseReport& IncrementalFixpoint::recompute(const CouplingMask& mask) {
  report_ = analyze_iterative(*nl_, *par_, *model_, *calc_, mask, opt_, &traj_);
  primed_ = true;
  changed_noiseless_.clear();
  changed_noisy_.clear();
  return report_;
}

void IncrementalFixpoint::replay_sta(std::size_t idx,
                                     const std::vector<double>& bump,
                                     std::span<const net::NetId> e_nets,
                                     sta::StaResult* out,
                                     std::vector<char>* win_dirty) {
  const std::size_t num_nets = nl_->num_nets();
  if (idx < traj_.windows.size()) {
    // Adopt the recorded evaluation: its windows under its bumps, plus the
    // gate tables (bump-independent, so any recorded entry's tables fit).
    // The worklist then covers exactly the edit cone plus every net whose
    // bump differs from the recorded vector.
    sta::StaResult seed;
    seed.windows = traj_.windows[idx];
    seed.gate_delay = traj_.final_sta.gate_delay;
    seed.gate_trans = traj_.final_sta.gate_trans;
    sta::IncrementalSta inc(*nl_, *model_, opt_.sta, std::move(seed),
                            traj_.bumps[idx]);
    for (net::NetId n : e_nets) inc.invalidate_net(n);
    for (net::NetId v = 0; v < num_nets; ++v) inc.set_lat_bump(v, bump[v]);
    inc.update();
    win_dirty->assign(num_nets, 0);
    for (net::NetId n : inc.last_changed()) (*win_dirty)[n] = 1;
    *out = inc.result();
  } else {
    // Past the recorded iteration count (the edit changed how the fixpoint
    // converges): fall back to a full evaluation, everything dirty.
    *out = sta::run_sta(*nl_, *model_, opt_.sta, &bump);
    win_dirty->assign(num_nets, 1);
  }
}

const NoiseReport& IncrementalFixpoint::refresh(
    std::span<const net::NetId> dirty_nets,
    std::span<const layout::CapId> dirty_caps, const CouplingMask& mask) {
  TKA_ASSERT(primed_);
  TKA_ASSERT(mask.size() == par_->num_couplings());
  obs::ScopedSpan span("noise.fixpoint_refresh");
  static obs::Counter& c_refreshes =
      obs::registry().counter("noise.fixpoint_refreshes");
  static obs::Counter& c_iters =
      obs::registry().counter("noise.fixpoint_refresh_iterations");
  static obs::Counter& c_victims =
      obs::registry().counter("noise.fixpoint_refresh_victims");
  c_refreshes.add(1);

  const std::size_t num_nets = nl_->num_nets();
  NoiseAnalyzer analyzer(*nl_, *par_, *model_);

  // The edit seeds (for STA invalidation) and their coupled neighborhood
  // (for relaxation redo: a neighbor's pulse or mask participation can
  // change even where no timing window moves).
  std::vector<char> near_e(num_nets, 0);
  std::vector<net::NetId> e_nets;
  auto seed_net = [&](net::NetId n) {
    TKA_ASSERT(n < num_nets);
    if (!near_e[n]) {
      near_e[n] = 1;
      e_nets.push_back(n);
    }
  };
  for (net::NetId n : dirty_nets) seed_net(n);
  for (layout::CapId id : dirty_caps) {
    const layout::CouplingCap& cc = par_->coupling(id);
    seed_net(cc.net_a);
    seed_net(cc.net_b);
  }
  std::sort(e_nets.begin(), e_nets.end());
  for (net::NetId n : e_nets) {
    for (layout::CapId id : par_->couplings_of(n)) {
      near_e[par_->coupling(id).other(n)] = 1;
    }
  }

  // Keep the previous noisy state for the exact change diff at the end.
  sta::WindowTable old_noisy = std::move(report_.noisy_windows);
  std::vector<double> old_dn = std::move(report_.delay_noise);

  FixpointTrajectory nt;

  // Noiseless STA: adopt the recorded base, re-propagate the edit cone.
  {
    sta::IncrementalSta inc(*nl_, *model_, opt_.sta, std::move(traj_.base), {});
    for (net::NetId n : e_nets) inc.invalidate_net(n);
    inc.update();
    changed_noiseless_ = inc.last_changed();
    nt.base = inc.result();
  }
  report_.noiseless_windows = nt.base.windows;
  report_.noiseless_delay = nt.base.max_lat;

  const double tol = std::max(kToleranceNs, 1e-5 * std::abs(nt.base.max_lat));

  // The starting bump vector and its per-net diff vs. the recorded run.
  std::vector<double> bump(num_nets, 0.0);
  std::vector<char> bump_dirty(num_nets, 0);
  std::vector<net::NetId> dirty_list;
  if (opt_.pessimistic_start) {
    EnvelopeBuilder builder(*nl_, *par_, *calc_, nt.base.windows);
    // The upper bound reads the victim's own window plus its aggressors'
    // pulse shapes (their transition times), so a changed noiseless window
    // dirties the net and its coupled neighbors.
    std::vector<char> dv = near_e;
    for (net::NetId v : changed_noiseless_) {
      dv[v] = 1;
      for (layout::CapId id : par_->couplings_of(v)) {
        dv[par_->coupling(id).other(v)] = 1;
      }
    }
    const bool have_ref = !traj_.bumps.empty();
    if (have_ref) bump = traj_.bumps[0];
    for (net::NetId v = 0; v < num_nets; ++v) {
      if (dv[v] || !have_ref) dirty_list.push_back(v);
    }
    runtime::parallel_for(
        opt_.threads, 0, dirty_list.size(), [&](std::size_t i) {
          const net::NetId v = dirty_list[i];
          bump[v] = analyzer.delay_noise_upper_bound(v, builder, mask);
        });
    for (net::NetId v : dirty_list) {
      bump_dirty[v] = (!have_ref || bump[v] != traj_.bumps[0][v]) ? 1 : 0;
    }
  }

  sta::StaResult cur;
  std::vector<char> win_dirty(num_nets, 0);
  bool converged = false;
  int iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    const std::size_t idx = nt.windows.size();
    replay_sta(idx, bump, e_nets, &cur, &win_dirty);
    nt.bumps.push_back(bump);
    nt.windows.push_back(cur.windows);

    EnvelopeBuilder builder(*nl_, *par_, *calc_, cur.windows);
    const bool have_next = (idx + 1) < traj_.bumps.size();
    // Victims whose relaxation inputs changed vs. the recorded iteration:
    // the edit neighborhood, a changed own bump, a changed own window, or
    // a changed aggressor window. Everyone else reuses the recorded bump.
    std::vector<char> dv = near_e;
    for (net::NetId v = 0; v < num_nets; ++v) {
      if (bump_dirty[v]) dv[v] = 1;
      if (win_dirty[v]) {
        dv[v] = 1;
        for (layout::CapId id : par_->couplings_of(v)) {
          dv[par_->coupling(id).other(v)] = 1;
        }
      }
    }
    dirty_list.clear();
    for (net::NetId v = 0; v < num_nets; ++v) {
      if (dv[v] || !have_next) dirty_list.push_back(v);
    }
    c_victims.add(dirty_list.size());

    std::vector<double> next = have_next
                                   ? traj_.bumps[idx + 1]
                                   : std::vector<double>(num_nets, 0.0);
    runtime::parallel_for(
        opt_.threads, 0, dirty_list.size(), [&](std::size_t i) {
          const net::NetId v = dirty_list[i];
          const double t50 = cur.windows[v].lat - bump[v];
          next[v] = analyzer.victim_delay_noise_at(v, builder, mask, t50);
        });
    std::vector<char> nbd(num_nets, 0);
    for (net::NetId v : dirty_list) {
      nbd[v] = (!have_next || next[v] != traj_.bumps[idx + 1][v]) ? 1 : 0;
    }
    // Full-vector convergence reduction, exactly as the cold loop judges it
    // (the reused entries are bit-equal, so the max is too).
    double max_change = 0.0;
    for (net::NetId v = 0; v < num_nets; ++v) {
      max_change = std::max(max_change, std::abs(next[v] - bump[v]));
    }
    bump = std::move(next);
    bump_dirty = std::move(nbd);
    if (max_change < tol) {
      converged = true;
      ++iter;
      break;
    }
  }
  c_iters.add(static_cast<std::uint64_t>(iter));
  if (!converged) {
    log::warn() << "IncrementalFixpoint: no convergence after "
                << kMaxIterations << " iterations (tol " << tol << " ns)";
  }

  // Final evaluation at the converged bumps.
  replay_sta(nt.windows.size(), bump, e_nets, &cur, &win_dirty);
  nt.bumps.push_back(bump);
  nt.windows.push_back(cur.windows);
  nt.final_sta = cur;

  report_.noisy_windows = cur.windows;
  report_.delay_noise = std::move(bump);
  report_.noisy_delay = cur.max_lat;
  report_.worst_po = cur.worst_po;
  report_.iterations = iter;
  report_.converged = converged;

  changed_noisy_.clear();
  for (net::NetId v = 0; v < num_nets; ++v) {
    if (!(report_.noisy_windows[v] == old_noisy[v]) ||
        report_.delay_noise[v] != old_dn[v]) {
      changed_noisy_.push_back(v);
    }
  }
  traj_ = std::move(nt);
  return report_;
}

}  // namespace tka::noise
