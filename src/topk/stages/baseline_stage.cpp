#include "topk/stages/baseline_stage.hpp"

#include <algorithm>
#include <cmath>

#include "net/topo.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "sta/critical_path.hpp"
#include "util/assert.hpp"

namespace tka::topk::stages {

double BaselineStage::masked_delay(const DesignRef& design,
                                   std::span<const layout::CapId> members,
                                   Mode mode,
                                   const noise::IterativeOptions& iterative) {
  const bool addition = (mode == Mode::kAddition);
  noise::CouplingMask mask =
      addition ? noise::CouplingMask::none(design.par->num_couplings())
               : noise::CouplingMask::all(design.par->num_couplings());
  for (layout::CapId id : members) mask.set(id, addition);
  const noise::NoiseReport report = noise::analyze_iterative(
      *design.nl, *design.par, *design.model, *design.calc, mask, iterative);
  return report.noisy_delay;
}

void BaselineStage::build_active_caps(const DesignRef& design,
                                      const TopkOptions& opt,
                                      BaselineState* state, net::NetId v,
                                      std::vector<layout::CapId>* out) {
  out->clear();
  for (layout::CapId id : design.par->couplings_of(v)) {
    if (design.par->coupling(id).cap_pf <= 0.0) continue;
    if (state->filter && state->filter->is_false(v, id)) continue;
    out->push_back(id);
  }
  truncate_active(design, opt, out);
}

void BaselineStage::truncate_active(const DesignRef& design,
                                    const TopkOptions& opt,
                                    std::vector<layout::CapId>* caps) {
  if (opt.max_primary_per_victim == 0 ||
      caps->size() <= opt.max_primary_per_victim) {
    return;
  }
  std::sort(caps->begin(), caps->end(), [&](layout::CapId a, layout::CapId b) {
    return design.par->coupling(a).cap_pf > design.par->coupling(b).cap_pf;
  });
  caps->resize(opt.max_primary_per_victim);
  std::sort(caps->begin(), caps->end());
}

void BaselineStage::derive_victim(const DesignRef& design,
                                  const TopkOptions& opt, BaselineState* state,
                                  net::NetId v) {
  const sta::WindowTable& windows = *state->windows;
  const noise::NoiseReport& all_rep = state->fixpoint->report();
  state->vic_t50[v] = state->addition
                          ? windows[v].lat
                          : windows[v].lat - all_rep.delay_noise[v];
  const double trans = std::max(windows[v].trans_late, 1e-4);
  state->vic_wave[v] =
      wave::make_rising_ramp(state->vic_t50[v], trans, state->vdd);
  if (!state->addition && !state->active_caps[v].empty()) {
    std::vector<const wave::Pwl*> terms;
    for (layout::CapId id : state->active_caps[v]) {
      const wave::Pwl& e = state->builder->envelope(v, id);
      if (!e.empty()) terms.push_back(&e);
    }
    state->total_env[v] = wave::Pwl::sum(terms).simplified(opt.envelope_tol);
    state->dn_total[v] = noise::delay_noise(state->vic_wave[v],
                                            state->total_env[v], state->vdd,
                                            state->vic_t50[v]);
  } else {
    state->total_env[v] = wave::Pwl();
    state->dn_total[v] = 0.0;
  }
}

// cum_ub accumulates each net's local upper bound down every path so pseudo
// envelopes are also covered by the dominance interval.
void BaselineStage::propagate_ub(const DesignRef& design, BaselineState* state) {
  for (net::NetId v : state->topo) {
    const net::Net& n = design.nl->net(v);
    double fanin_ub = 0.0;
    if (n.driver != net::kInvalidGate) {
      for (net::NetId in : design.nl->gate(n.driver).inputs) {
        fanin_ub = std::max(fanin_ub, state->cum_ub[in]);
      }
    }
    state->cum_ub[v] = state->local_ub[v] + fanin_ub;
  }
}

void BaselineStage::rebuild_intervals(BaselineState* state) {
  const std::size_t num_nets = state->iv.size();
  for (net::NetId v = 0; v < num_nets; ++v) {
    state->iv[v] = {state->vic_t50[v], state->vic_t50[v] + state->cum_ub[v] + 1e-6};
  }
}

void BaselineStage::rebuild_caps_by_size(const DesignRef& design,
                                         BaselineState* state) {
  state->caps_by_size.clear();
  for (layout::CapId id = 0; id < design.par->num_couplings(); ++id) {
    if (design.par->coupling(id).cap_pf > 0.0) state->caps_by_size.push_back(id);
  }
  std::sort(state->caps_by_size.begin(), state->caps_by_size.end(),
            [&](layout::CapId a, layout::CapId b) {
              return design.par->coupling(a).cap_pf >
                     design.par->coupling(b).cap_pf;
            });
}

void BaselineStage::prime(const DesignRef& design, const TopkOptions& opt,
                          const noise::IterativeOptions& iter_opt,
                          BaselineState* state) {
  const net::Netlist& nl = *design.nl;
  const layout::Parasitics& par = *design.par;
  const std::size_t num_nets = nl.num_nets();
  const std::size_t num_caps = par.num_couplings();
  const noise::CouplingMask mask_all = noise::CouplingMask::all(num_caps);

  state->addition = (opt.mode == Mode::kAddition);
  state->analyzer =
      std::make_unique<noise::NoiseAnalyzer>(nl, par, *design.model);
  state->vdd = state->analyzer->vdd();

  // The all-aggressor fixpoint is always computed: it is the elimination
  // starting point and the addition reference. recompute() records the
  // trajectory refresh() later replays.
  state->fixpoint = std::make_unique<noise::IncrementalFixpoint>(
      nl, par, *design.model, *design.calc, iter_opt);
  {
    obs::ScopedSpan baseline_span("topk.baseline");
    state->fixpoint->recompute(mask_all);
  }
  const noise::NoiseReport& all_rep = state->fixpoint->report();
  state->windows =
      state->addition ? &all_rep.noiseless_windows : &all_rep.noisy_windows;
  state->builder = std::make_unique<noise::EnvelopeBuilder>(
      nl, par, *design.calc, *state->windows);

  // False-aggressor prefilter and the per-victim active coupling lists.
  // The per-victim passes (filter, victim derivation, upper bounds) run at
  // the query's thread count; each victim writes only its own slots, so
  // no value depends on the schedule.
  if (opt.use_filter) {
    state->filter = std::make_unique<noise::AggressorFilter>(
        nl, par, *state->analyzer, *state->builder, opt.filter, opt.threads);
  }
  state->active_caps.assign(num_nets, {});
  for (layout::CapId id = 0; id < num_caps; ++id) {
    const layout::CouplingCap& cc = par.coupling(id);
    if (cc.cap_pf <= 0.0) continue;
    for (const net::NetId v : {cc.net_a, cc.net_b}) {
      if (state->filter && state->filter->is_false(v, id)) continue;
      state->active_caps[v].push_back(id);
    }
  }
  if (opt.max_primary_per_victim > 0) {
    for (auto& caps : state->active_caps) truncate_active(design, opt, &caps);
  }

  // Victim transitions and (elimination) total envelopes.
  state->vic_t50.assign(num_nets, 0.0);
  state->vic_wave.assign(num_nets, {});
  state->total_env.assign(num_nets, {});
  state->dn_total.assign(num_nets, 0.0);
  runtime::parallel_for(opt.threads, 0, num_nets, [&](std::size_t v) {
    derive_victim(design, opt, state, v);
  });

  // Dominance intervals with propagated upper bounds.
  state->topo = net::topological_nets(nl);
  state->local_ub.assign(num_nets, 0.0);
  state->cum_ub.assign(num_nets, 0.0);
  runtime::parallel_for(opt.threads, 0, num_nets, [&](std::size_t v) {
    state->local_ub[v] =
        state->analyzer->delay_noise_upper_bound(v, *state->builder, mask_all);
  });
  propagate_ub(design, state);
  state->iv.assign(num_nets, {});
  rebuild_intervals(state);

  // Victim restriction by slack (primaries only; pseudo always propagates).
  // Slacks are also the fallback sink estimate when pseudo propagation is
  // disabled.
  state->full_victim.assign(num_nets, 1);
  state->base_slack.clear();
  if (std::isfinite(opt.victim_slack_threshold) || !opt.use_pseudo) {
    const sta::StaResult base_sta =
        sta::run_sta(nl, *design.model, opt.iterative.sta);
    state->base_slack = sta::net_slacks(nl, base_sta);
    if (std::isfinite(opt.victim_slack_threshold)) {
      for (net::NetId v = 0; v < num_nets; ++v) {
        state->full_victim[v] =
            state->base_slack[v] <= opt.victim_slack_threshold ? 1 : 0;
      }
    }
  }

  rebuild_caps_by_size(design, state);
  state->sinks = nl.primary_outputs();
  if (state->sinks.empty()) state->sinks.push_back(all_rep.worst_po);
}

}  // namespace tka::topk::stages
