#include "noise/aggressor_filter.hpp"

#include <algorithm>
#include <array>

#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tka::noise {

AggressorFilter::AggressorFilter(const net::Netlist& nl, const layout::Parasitics& par,
                                 const NoiseAnalyzer& analyzer,
                                 const EnvelopeBuilder& builder,
                                 const FilterOptions& opt, int threads)
    : nl_(&nl), par_(&par), opt_(opt), verdict_(2 * par.num_couplings(), kKept) {
  obs::ScopedSpan span("noise.filter");

  if (opt_.functional) {
    toggles_ = std::make_unique<net::ToggleProfile>(net::profile_toggles(
        nl, opt_.functional_events, opt_.functional_seed));
  }
  const CouplingMask all = CouplingMask::all(par.num_couplings());
  runtime::parallel_for(threads, 0, nl.num_nets(), [&](std::size_t v) {
    // The dominance interval (an upper bound over all of the victim's
    // couplings) is computed on the first side that reaches the window rule.
    std::optional<wave::DominanceInterval> iv;
    for (layout::CapId id : par.couplings_of(v)) {
      verdict_[side_index(v, id)] =
          side_verdict(v, id, analyzer, builder, all, iv);
    }
  });
  std::array<size_t, kOutsideWindow + 1> tally{};
  for (Verdict verdict : verdict_) ++tally[verdict];
  num_filtered_ = verdict_.size() - tally[kKept];
  obs::registry().counter("noise.filter_false_sides").add(num_filtered_);
  if (log::enabled(log::Level::kDebug)) {
    log::debug() << "filter: " << num_filtered_ << " of " << verdict_.size()
                 << " victim-cap sides false (" << tally[kZeroCap]
                 << " zero-cap, " << tally[kLowPeak] << " low-peak, "
                 << tally[kNoToggle] << " no-toggle, " << tally[kOutsideWindow]
                 << " outside-window)";
  }
}

AggressorFilter::Verdict AggressorFilter::side_verdict(
    net::NetId victim, layout::CapId id, const NoiseAnalyzer& analyzer,
    const EnvelopeBuilder& builder, const CouplingMask& all,
    std::optional<wave::DominanceInterval>& iv) const {
  const layout::CouplingCap& cc = par_->coupling(id);
  const bool debug = log::enabled(log::Level::kDebug);
  if (cc.cap_pf <= 0.0) return kZeroCap;
  const wave::PulseShape shape = builder.pulse_shape(victim, id);
  if (shape.peak < opt_.min_peak_v) {
    if (debug) {
      log::debug() << "filter: cap " << id << " false for victim "
                   << nl_->net(victim).name << " (peak " << shape.peak
                   << " V < " << opt_.min_peak_v << " V)";
    }
    return kLowPeak;
  }
  if (toggles_ != nullptr && !toggles_->both_toggled(victim, cc.other(victim))) {
    if (debug) {
      log::debug() << "filter: cap " << id << " false for victim "
                   << nl_->net(victim).name << " (no functional toggle overlap)";
    }
    return kNoToggle;
  }
  if (!iv.has_value()) {
    iv = analyzer.dominance_interval(victim, builder, all);
    iv->lo -= opt_.window_margin_ns;
    iv->hi += opt_.window_margin_ns;
  }
  const wave::Pwl env = builder.envelope_widened(victim, id, 0.0);
  // Zero inside the interval <=> the zero waveform encapsulates it there.
  if (env.empty() ||
      wave::Pwl::zero().encapsulates(env, iv->lo, iv->hi, 1e-12)) {
    if (debug) {
      log::debug() << "filter: cap " << id << " false for victim "
                   << nl_->net(victim).name
                   << " (envelope outside the dominance interval)";
    }
    return kOutsideWindow;
  }
  return kKept;
}

void AggressorFilter::refresh(std::span<const net::NetId> nets,
                              const NoiseAnalyzer& analyzer,
                              const EnvelopeBuilder& builder) {
  obs::ScopedSpan span("noise.filter_refresh");
  static obs::Counter& c_sides =
      obs::registry().counter("noise.filter_refreshed_sides");
  // Collect the affected sides, deduplicated and in ascending side order.
  std::vector<size_t> sides;
  for (net::NetId n : nets) {
    for (layout::CapId id : par_->couplings_of(n)) {
      sides.push_back(side_index(n, id));
      sides.push_back(side_index(par_->coupling(id).other(n), id));
    }
  }
  std::sort(sides.begin(), sides.end());
  sides.erase(std::unique(sides.begin(), sides.end()), sides.end());
  c_sides.add(sides.size());

  const CouplingMask all = CouplingMask::all(par_->num_couplings());
  std::vector<std::optional<wave::DominanceInterval>> iv(nl_->num_nets());
  for (size_t side : sides) {
    const layout::CapId id = static_cast<layout::CapId>(side / 2);
    const layout::CouplingCap& cc = par_->coupling(id);
    const net::NetId victim = (side % 2 == 0) ? cc.net_a : cc.net_b;
    const Verdict now =
        side_verdict(victim, id, analyzer, builder, all, iv[victim]);
    if (now != kKept) ++num_filtered_;
    if (verdict_[side] != kKept) --num_filtered_;
    verdict_[side] = now;
  }
}

size_t AggressorFilter::side_index(net::NetId victim, layout::CapId cap) const {
  const layout::CouplingCap& cc = par_->coupling(cap);
  TKA_ASSERT(victim == cc.net_a || victim == cc.net_b);
  return 2 * static_cast<size_t>(cap) + (victim == cc.net_b ? 1 : 0);
}

bool AggressorFilter::is_false(net::NetId victim, layout::CapId cap) const {
  return verdict_[side_index(victim, cap)] != kKept;
}

}  // namespace tka::noise
