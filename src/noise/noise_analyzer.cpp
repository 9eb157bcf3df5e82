#include "noise/noise_analyzer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tka::noise {

size_t CouplingMask::count() const {
  size_t n = 0;
  for (char c : active_) n += (c != 0);
  return n;
}

wave::Pwl victim_transition(const sta::TimingWindow& window, double vdd) {
  return wave::make_rising_ramp(window.lat, std::max(window.trans_late, 1e-4), vdd);
}

double delay_shift(const wave::Pwl& victim_wave, const wave::Pwl& envelope,
                   double vdd, double noiseless_t50) {
  if (envelope.empty()) return 0.0;
  const wave::Pwl noisy = victim_wave.minus(envelope);
  const std::optional<double> t50 = noisy.last_time_at_or_below(0.5 * vdd);
  if (!t50.has_value()) return 0.0;  // waveform never recovers; treat as no info
  return *t50 - noiseless_t50;
}

double delay_noise(const wave::Pwl& victim_wave, const wave::Pwl& envelope,
                   double vdd, double noiseless_t50) {
  return std::max(0.0, delay_shift(victim_wave, envelope, vdd, noiseless_t50));
}

namespace {

// Sum of the non-empty waveforms in `parts`.
wave::Pwl sum_nonempty(const std::vector<wave::Pwl>& parts) {
  std::vector<const wave::Pwl*> terms;
  for (const wave::Pwl& p : parts) {
    if (!p.empty()) terms.push_back(&p);
  }
  return wave::Pwl::sum(terms);
}

}  // namespace

wave::Pwl NoiseAnalyzer::combined_envelope(net::NetId victim,
                                           const EnvelopeBuilder& builder,
                                           const CouplingMask& mask) const {
  std::vector<wave::Pwl> envs;
  for (layout::CapId id : par_->couplings_of(victim)) {
    if (mask.active(id)) envs.push_back(builder.envelope_widened(victim, id, 0.0));
  }
  return sum_nonempty(envs);
}

double NoiseAnalyzer::victim_delay_noise(net::NetId victim,
                                         const EnvelopeBuilder& builder,
                                         const CouplingMask& mask) const {
  return victim_delay_noise_at(victim, builder, mask,
                               builder.windows()[victim].lat);
}

double NoiseAnalyzer::victim_delay_noise_at(net::NetId victim,
                                            const EnvelopeBuilder& builder,
                                            const CouplingMask& mask,
                                            double t50) const {
  const sta::TimingWindow& w = builder.windows()[victim];
  const wave::Pwl env = combined_envelope(victim, builder, mask);
  if (env.empty()) return 0.0;
  const wave::Pwl vic =
      wave::make_rising_ramp(t50, std::max(w.trans_late, 1e-4), vdd());
  return delay_noise(vic, env, vdd(), t50);
}

double NoiseAnalyzer::delay_noise_upper_bound(net::NetId victim,
                                              const EnvelopeBuilder& builder,
                                              const CouplingMask& mask) const {
  const sta::TimingWindow& w = builder.windows()[victim];
  // Plateau span: the victim's whole switching region plus the worst-case
  // sum of pulse tails. A generous but finite span keeps the bound tight
  // enough to be useful while provably covering any alignment.
  double peak_sum = 0.0;
  double max_tail = 0.0;
  for (layout::CapId id : par_->couplings_of(victim)) {
    if (!mask.active(id)) continue;
    const wave::PulseShape s = builder.pulse_shape(victim, id);
    peak_sum += s.peak;
    max_tail = std::max(max_tail, wave::pulse_width(s));
  }
  if (peak_sum <= 0.0) return 0.0;

  const double t_lo = w.lat - 0.5 * w.trans_late;
  // The t50 shift of a rising ramp of transition T under a constant
  // depression of height H is bounded by T*H/Vdd plus the time the
  // depression persists past the ramp; a plateau of total height peak_sum
  // held across [t_lo, t_hi] realizes the worst case.
  const double t_hi = w.lat + w.trans_late * (peak_sum / vdd()) + max_tail;

  std::vector<wave::Pwl> plateaus;
  for (layout::CapId id : par_->couplings_of(victim)) {
    if (!mask.active(id)) continue;
    plateaus.push_back(builder.plateau_envelope(victim, id, t_lo, t_hi));
  }
  const wave::Pwl env = sum_nonempty(plateaus);
  const wave::Pwl vic = victim_transition(w, vdd());
  return delay_noise(vic, env, vdd(), w.lat);
}

wave::DominanceInterval NoiseAnalyzer::dominance_interval(
    net::NetId victim, const EnvelopeBuilder& builder,
    const CouplingMask& mask) const {
  const sta::TimingWindow& w = builder.windows()[victim];
  wave::DominanceInterval iv;
  iv.lo = w.lat;  // noiseless victim t50
  iv.hi = w.lat + delay_noise_upper_bound(victim, builder, mask);
  return iv;
}

bool is_false_aggressor(const layout::Parasitics& par,
                        const EnvelopeBuilder& builder, net::NetId victim,
                        layout::CapId cap, double upper_bound) {
  if (par.coupling(cap).cap_pf <= 0.0) return true;
  if (builder.pulse_shape(victim, cap).peak < kMinPeakV) return true;
  const double lat = builder.windows()[victim].lat;
  const wave::Pwl env = builder.envelope_widened(victim, cap, 0.0);
  // Zero inside the interval <=> the zero waveform encapsulates it there.
  return env.empty() ||
         wave::Pwl::zero().encapsulates(env, lat, lat + upper_bound, 1e-12);
}

}  // namespace tka::noise
