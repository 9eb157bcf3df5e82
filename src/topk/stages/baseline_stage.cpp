#include "topk/stages/baseline_stage.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

void BaselineStage::prime(const DesignRef& design, const TopkOptions& opt,
                          const noise::IterativeOptions& iter_opt,
                          BaselineState* state) {
  const net::Netlist& nl = *design.nl;
  const layout::Parasitics& par = *design.par;
  const std::size_t num_nets = nl.num_nets();

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
    state->fixpoint->recompute(noise::CouplingMask::all(par.num_couplings()));
  }
  const noise::NoiseReport& all_rep = state->fixpoint->report();
  state->windows =
      state->addition ? &all_rep.noiseless_windows : &all_rep.noisy_windows;
  state->builder = std::make_unique<noise::EnvelopeBuilder>(
      nl, par, *design.calc, *state->windows);

  state->topo = net::topological_nets(nl);
  state->active_caps.assign(num_nets, {});
  state->vic_t50.assign(num_nets, 0.0);
  state->vic_wave.assign(num_nets, {});
  state->total_env.assign(num_nets, {});
  state->dn_total.assign(num_nets, 0.0);
  state->local_ub.assign(num_nets, 0.0);
  state->cum_ub.assign(num_nets, 0.0);
  state->iv.assign(num_nets, {});
  state->full_victim.assign(num_nets, 1);
  state->base_slack.clear();

  std::vector<net::NetId> every_net(num_nets);
  std::iota(every_net.begin(), every_net.end(), net::NetId{0});
  const std::size_t dropped =
      derive(design, opt, every_net, state, /*moved=*/nullptr);
  if (opt.use_filter) {
    obs::registry().counter("noise.filter_false_sides").add(dropped);
  }
}

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
  obs::ScopedSpan span("topk.baseline_refresh");
  obs::registry().counter("topk.baseline_refreshes").add(1);

  state->fixpoint->refresh(edit_nets, edit_caps,
                           noise::CouplingMask::all(par.num_couplings()));
  const std::vector<net::NetId>& changed =
      state->addition ? state->fixpoint->changed_noiseless()
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

  // Drop stale envelope-table entries before anything re-reads them.
  for (net::NetId n : touched) state->builder->invalidate_net(n);
  for (layout::CapId cap : edit_caps) state->builder->invalidate_cap(cap);

  // Influence region R = touched ∪ coupled(touched): a victim's envelopes,
  // active list, upper bound and total envelope can all move when one of
  // its aggressors did. Its false-aggressor verdicts read only its caps,
  // drive, load and window and its partners' windows, so a victim outside
  // R keeps them.
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

  if (opt.use_filter) {
    std::size_t sides = 0;
    for (net::NetId v : region) sides += par.couplings_of(v).size();
    obs::registry().counter("noise.filter_refreshed_sides").add(sides);
  }
  derive(design, opt, region, state, seeds);

  // Seed set: every victim whose enumeration inputs moved — the region,
  // the nets derive() reported, and, since pseudo propagation reads the
  // fanin nets' arrival windows directly, the gate outputs a touched net
  // feeds.
  seeds->insert(seeds->end(), region.begin(), region.end());
  for (net::NetId n : touched) {
    for (const net::PinRef& pin : nl.net(n).fanouts) {
      seeds->push_back(nl.gate(pin.gate).output);
    }
  }
  std::sort(seeds->begin(), seeds->end());
  seeds->erase(std::unique(seeds->begin(), seeds->end()), seeds->end());
}

std::size_t BaselineStage::derive(const DesignRef& design,
                                  const TopkOptions& opt,
                                  std::span<const net::NetId> region,
                                  BaselineState* state,
                                  std::vector<net::NetId>* moved) {
  const net::Netlist& nl = *design.nl;
  const layout::Parasitics& par = *design.par;
  const std::size_t num_nets = nl.num_nets();
  const noise::CouplingMask mask_all =
      noise::CouplingMask::all(par.num_couplings());
  const sta::WindowTable& windows = *state->windows;
  const noise::NoiseReport& all_rep = state->fixpoint->report();
  auto larger = [&](layout::CapId a, layout::CapId b) {
    return par.coupling(a).cap_pf > par.coupling(b).cap_pf;
  };

  // Per region victim: the local upper bound, the active couplings (live,
  // not false aggressors, cut to the largest max_primary_per_victim), the
  // victim transition and elimination's total envelope. A victim writes
  // only its own slots and builds only its own envelope-table sides, so no
  // value or counter depends on the schedule.
  std::vector<std::size_t> dropped(region.size(), 0);
  runtime::parallel_for(opt.threads, 0, region.size(), [&](std::size_t i) {
    const net::NetId v = region[i];
    state->local_ub[v] =
        state->analyzer->delay_noise_upper_bound(v, *state->builder, mask_all);
    std::vector<layout::CapId>& caps = state->active_caps[v];
    caps.clear();
    {
      obs::ScopedSpan filter_span("noise.filter");
      for (layout::CapId id : par.couplings_of(v)) {
        if (opt.use_filter
                ? noise::is_false_aggressor(par, *state->builder, v, id,
                                            state->local_ub[v])
                : par.coupling(id).cap_pf <= 0.0) {
          ++dropped[i];
        } else {
          caps.push_back(id);
        }
      }
    }
    if (opt.max_primary_per_victim != 0 &&
        caps.size() > opt.max_primary_per_victim) {
      std::sort(caps.begin(), caps.end(), larger);
      caps.resize(opt.max_primary_per_victim);
      std::sort(caps.begin(), caps.end());
    }

    state->vic_t50[v] = state->addition
                            ? windows[v].lat
                            : windows[v].lat - all_rep.delay_noise[v];
    const double trans = std::max(windows[v].trans_late, 1e-4);
    state->vic_wave[v] =
        wave::make_rising_ramp(state->vic_t50[v], trans, state->vdd);
    if (!state->addition && !caps.empty()) {
      std::vector<const wave::Pwl*> terms;
      for (layout::CapId id : caps) {
        const wave::Pwl& e = state->builder->envelope(v, id);
        if (!e.empty()) terms.push_back(&e);
      }
      state->total_env[v] = wave::Pwl::sum(terms).simplified(kEnvelopeTol);
      state->dn_total[v] = noise::delay_noise(state->vic_wave[v],
                                              state->total_env[v], state->vdd,
                                              state->vic_t50[v]);
    } else {
      state->total_env[v] = wave::Pwl();
      state->dn_total[v] = 0.0;
    }
  });

  // Dominance intervals. cum_ub accumulates each net's local upper bound
  // down every path so pseudo envelopes are also covered, which moves
  // intervals arbitrarily far beyond the region: rebuild all of them.
  for (net::NetId v : state->topo) {
    const net::Net& n = nl.net(v);
    double fanin_ub = 0.0;
    if (n.driver != net::kInvalidGate) {
      for (net::NetId in : nl.gate(n.driver).inputs) {
        fanin_ub = std::max(fanin_ub, state->cum_ub[in]);
      }
    }
    state->cum_ub[v] = state->local_ub[v] + fanin_ub;
    const wave::DominanceInterval iv{
        state->vic_t50[v], state->vic_t50[v] + state->cum_ub[v] + 1e-6};
    if (moved != nullptr &&
        (iv.lo != state->iv[v].lo || iv.hi != state->iv[v].hi)) {
      moved->push_back(v);
    }
    state->iv[v] = iv;
  }

  // Victim restriction by slack (primaries only; pseudo always propagates).
  // Slacks are also the fallback sink estimate when pseudo propagation is
  // disabled. Required times flow backward from the POs, so a verdict can
  // flip outside the region's forward cone.
  if (std::isfinite(opt.victim_slack_threshold) || !opt.use_pseudo) {
    state->base_slack = sta::net_slacks(
        nl, sta::run_sta(nl, *design.model, opt.iterative.sta));
    if (std::isfinite(opt.victim_slack_threshold)) {
      for (net::NetId v = 0; v < num_nets; ++v) {
        const char full =
            state->base_slack[v] <= opt.victim_slack_threshold ? 1 : 0;
        if (moved != nullptr && full != state->full_victim[v]) {
          moved->push_back(v);
        }
        state->full_victim[v] = full;
      }
    }
  }

  // Live couplings by descending value (the evaluate stage pads short sets
  // from it) and the sinks.
  state->caps_by_size.clear();
  for (layout::CapId id = 0; id < par.num_couplings(); ++id) {
    if (par.coupling(id).cap_pf > 0.0) state->caps_by_size.push_back(id);
  }
  std::sort(state->caps_by_size.begin(), state->caps_by_size.end(), larger);
  state->sinks = nl.primary_outputs();
  if (state->sinks.empty()) state->sinks.push_back(all_rep.worst_po);
  return std::accumulate(dropped.begin(), dropped.end(), std::size_t{0});
}

}  // namespace tka::topk::stages
