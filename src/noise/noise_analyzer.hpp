// Per-victim delay-noise computation: worst-case alignment by trapezoidal-
// envelope superposition (paper §2).
//
// All victim transitions are analyzed as rising ramps with t50 = LAT; the
// linear framework is polarity-symmetric, so the rising case covers both.
// The noisy waveform is victim(t) - combined_envelope(t); its final 50%-Vdd
// crossing is the noisy t50, and the delay noise is the t50 shift. Per the
// paper (§3.1), superposition stays valid even when the noise exceeds the
// victim slew.
#pragma once

#include <cstddef>

#include "noise/envelope_builder.hpp"
#include "wave/envelope.hpp"
#include "wave/ramp.hpp"

namespace tka::noise {

/// Which coupling caps participate in the analysis. Zeroed caps are always
/// excluded regardless of the mask.
class CouplingMask {
 public:
  /// All caps active.
  static CouplingMask all(size_t num_caps) { return CouplingMask(num_caps, true); }
  /// No caps active.
  static CouplingMask none(size_t num_caps) { return CouplingMask(num_caps, false); }

  void set(layout::CapId id, bool active) { active_.at(id) = active; }
  bool active(layout::CapId id) const { return active_.at(id) != 0; }
  size_t size() const { return active_.size(); }

  /// Number of active caps.
  size_t count() const;

 private:
  CouplingMask(size_t n, bool v) : active_(n, v ? 1 : 0) {}
  std::vector<char> active_;
};

/// Victim transition waveform for a window: rising ramp, t50 = LAT.
wave::Pwl victim_transition(const sta::TimingWindow& window, double vdd);

/// Delay noise of `envelope` superimposed on `victim_wave` whose noiseless
/// t50 is `noiseless_t50`. Non-negative.
double delay_noise(const wave::Pwl& victim_wave, const wave::Pwl& envelope,
                   double vdd, double noiseless_t50);

/// Signed t50 shift of the superposition. Negative values arise when the
/// envelope has negative parts (e.g. elimination-mode residuals T - env_S,
/// where removing a pseudo aggressor moves the transition *earlier* than
/// the reference). delay_noise() is max(0, delay_shift()).
double delay_shift(const wave::Pwl& victim_wave, const wave::Pwl& envelope,
                   double vdd, double noiseless_t50);

/// Stateless per-victim noise queries over an EnvelopeBuilder. None of
/// them reads the builder's envelope table: the fixpoint sweeps call them
/// once per victim per iteration on a fresh builder, where a shared cache
/// would only add contention.
class NoiseAnalyzer {
 public:
  NoiseAnalyzer(const net::Netlist& nl, const layout::Parasitics& par,
                const sta::DelayModel& model)
      : nl_(&nl), par_(&par), model_(&model) {}

  /// Combined envelope of the victim's active couplings, each built fresh
  /// (bit-identical to the builder's cached envelope()).
  wave::Pwl combined_envelope(net::NetId victim, const EnvelopeBuilder& builder,
                              const CouplingMask& mask) const;

  /// Worst-case delay noise on the victim from its active couplings
  /// (primary aggressors only; propagation is the iterative engine's job).
  double victim_delay_noise(net::NetId victim, const EnvelopeBuilder& builder,
                            const CouplingMask& mask) const;

  /// Same, but with the victim transition anchored at an explicit t50
  /// instead of the window's LAT. The iterative fixpoint uses this to keep
  /// a net's own noise bump out of its own alignment (a victim must not
  /// "escape" its own noise — that feedback creates limit cycles).
  double victim_delay_noise_at(net::NetId victim, const EnvelopeBuilder& builder,
                               const CouplingMask& mask, double t50) const;

  /// Upper bound on the victim's delay noise: all active aggressors given
  /// infinite timing windows (plateau envelopes across the victim's
  /// switching region). Closes the dominance interval (paper §3.2), which
  /// the baseline stage builds from it.
  double delay_noise_upper_bound(net::NetId victim,
                                 const EnvelopeBuilder& builder,
                                 const CouplingMask& mask) const;

  double vdd() const { return model_->options().vdd; }

 private:
  const net::Netlist* nl_;
  const layout::Parasitics* par_;
  const sta::DelayModel* model_;
};

/// Noise floor of the magnitude rule: pulses with a lower peak (V) are
/// false aggressors, as industrial practice thresholds tiny couplings.
inline constexpr double kMinPeakV = 1e-4;

/// The false-aggressor rule (paper refs [10],[11], simplified): true when
/// `cap` is dropped for `victim`. Rules, in order: the coupling is zeroed;
/// its pulse peak is below the noise floor kMinPeakV; its envelope is
/// identically zero over the victim's dominance interval
/// [lat, lat + upper_bound], so it never hits the transition even with
/// propagated-noise widening. `upper_bound` is
/// delay_noise_upper_bound(victim, builder, all caps).
/// The side's envelope is built fresh, not taken from the builder's table:
/// many sides tested here are never read again.
bool is_false_aggressor(const layout::Parasitics& par,
                        const EnvelopeBuilder& builder, net::NetId victim,
                        layout::CapId cap, double upper_bound);

}  // namespace tka::noise
