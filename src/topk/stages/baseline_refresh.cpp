// BaselineStage::refresh — the incremental half of the baseline stage
// (prime lives in baseline_stage.cpp): re-converge the recorded fixpoint
// over an edit's cone, re-derive only the influence region's per-victim
// state, and report the seed victims whose enumeration inputs moved.
#include "topk/stages/baseline_stage.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "sta/critical_path.hpp"
#include "util/assert.hpp"

namespace tka::topk::stages {

void BaselineStage::refresh(const DesignRef& design, const TopkOptions& opt,
                            std::span<const net::NetId> edit_nets,
                            std::span<const layout::CapId> edit_caps,
                            BaselineState* state,
                            std::vector<net::NetId>* seeds) {
  TKA_CHECK(state->fixpoint && state->fixpoint->primed(),
            "BaselineStage::refresh requires a primed state");
  const net::Netlist& nl = *design.nl;
  const layout::Parasitics& par = *design.par;
  const std::size_t num_nets = nl.num_nets();
  const noise::CouplingMask mask_all =
      noise::CouplingMask::all(par.num_couplings());
  obs::ScopedSpan span("topk.baseline_refresh");
  obs::registry().counter("topk.baseline_refreshes").add(1);

  state->fixpoint->refresh(edit_nets, edit_caps, mask_all);
  const noise::NoiseReport& all_rep = state->fixpoint->report();
  const std::vector<net::NetId>& changed = state->addition
                                               ? state->fixpoint->changed_noiseless()
                                               : state->fixpoint->changed_noisy();

  // Touched = edited nets, edited-cap endpoints, and every net whose
  // mode-selected window (or local noise bump) moved.
  std::vector<char> flag(num_nets, 0);
  std::vector<net::NetId> touched;
  auto touch = [&](net::NetId n) {
    if (!flag[n]) {
      flag[n] = 1;
      touched.push_back(n);
    }
  };
  for (net::NetId n : edit_nets) touch(n);
  for (layout::CapId cap : edit_caps) {
    touch(par.coupling(cap).net_a);
    touch(par.coupling(cap).net_b);
  }
  for (net::NetId n : changed) touch(n);
  std::sort(touched.begin(), touched.end());

  // Drop stale envelope-cache entries before anything re-reads them.
  for (net::NetId n : touched) state->builder->invalidate_net(n);
  for (layout::CapId cap : edit_caps) state->builder->invalidate_cap(cap);

  // Influence region R = touched ∪ coupled(touched): a victim's envelopes,
  // active list, upper bound and total envelope can all move when one of
  // its aggressors did.
  std::vector<char> in_region = flag;
  std::vector<net::NetId> region = touched;
  for (net::NetId n : touched) {
    for (layout::CapId cap : par.couplings_of(n)) {
      const net::NetId o = par.coupling(cap).other(n);
      if (!in_region[o]) {
        in_region[o] = 1;
        region.push_back(o);
      }
    }
  }
  std::sort(region.begin(), region.end());
  obs::registry().counter("topk.baseline_refresh_region").add(region.size());

  if (state->filter) {
    state->filter->refresh(region, *state->analyzer, *state->builder);
  }

  std::vector<layout::CapId> caps;
  for (net::NetId v : region) {
    build_active_caps(design, opt, state, v, &caps);
    state->active_caps[v] = caps;
    derive_victim(opt, state, v);
    state->local_ub[v] =
        state->analyzer->delay_noise_upper_bound(v, *state->builder, mask_all);
  }
  // cum_ub and the intervals are cheap arithmetic over stored local bounds;
  // rebuild them wholesale, then seed every net whose dominance interval
  // actually moved — cum_ub accumulates down all fanout paths, so interval
  // shifts can land arbitrarily far beyond R.
  const std::vector<wave::DominanceInterval> old_iv = state->iv;
  propagate_ub(design, state);
  rebuild_intervals(state);
  std::vector<net::NetId> iv_changed;
  for (net::NetId v = 0; v < num_nets; ++v) {
    if (state->iv[v].lo != old_iv[v].lo || state->iv[v].hi != old_iv[v].hi) {
      iv_changed.push_back(v);
    }
  }

  // Slack gate / fallback estimates: recompute and seed the flips (required
  // times flow backward from the POs, so a flip can land outside R's
  // forward cone).
  std::vector<net::NetId> flips;
  if (std::isfinite(opt.victim_slack_threshold) || !opt.use_pseudo) {
    const sta::StaResult base_sta =
        sta::run_sta(nl, *design.model, opt.iterative.sta);
    state->base_slack = sta::net_slacks(nl, base_sta);
    if (std::isfinite(opt.victim_slack_threshold)) {
      for (net::NetId v = 0; v < num_nets; ++v) {
        const char now = state->base_slack[v] <= opt.victim_slack_threshold ? 1 : 0;
        if (now != state->full_victim[v]) {
          state->full_victim[v] = now;
          flips.push_back(v);
        }
      }
    }
  }

  rebuild_caps_by_size(design, state);
  state->sinks = nl.primary_outputs();
  if (state->sinks.empty()) state->sinks.push_back(all_rep.worst_po);

  // Seed set: every victim whose enumeration inputs moved. Pseudo
  // propagation reads the fanin nets' arrival windows directly, so a
  // touched net also dirties the gate outputs it feeds.
  seeds->insert(seeds->end(), region.begin(), region.end());
  for (net::NetId n : touched) {
    for (const net::PinRef& pin : nl.net(n).fanouts) {
      seeds->push_back(nl.gate(pin.gate).output);
    }
  }
  seeds->insert(seeds->end(), iv_changed.begin(), iv_changed.end());
  seeds->insert(seeds->end(), flips.begin(), flips.end());
  std::sort(seeds->begin(), seeds->end());
  seeds->erase(std::unique(seeds->begin(), seeds->end()), seeds->end());
}

}  // namespace tka::topk::stages
