// False-aggressor filtering (paper refs [10],[11], simplified).
//
// Two pruning rules, both conservative (a filtered coupling provably cannot
// contribute delay noise to that victim):
//  * timing: the aggressor's envelope is identically zero inside the
//    victim's dominance interval — the aggressor can never hit the victim
//    transition, even with propagated-noise widening (the interval already
//    includes the delay-noise upper bound).
//  * magnitude: the characterized pulse peak is below a noise floor
//    (industrial practice thresholds tiny couplings).
#pragma once

#include <cstddef>

#include <memory>
#include <optional>
#include <span>

#include "net/logic_sim.hpp"
#include "noise/noise_analyzer.hpp"

namespace tka::noise {

/// Filtering thresholds.
struct FilterOptions {
  double min_peak_v = 1e-4;       ///< pulses below this peak are noise floor
  double window_margin_ns = 0.0;  ///< extra slack added around the interval

  /// Optional functional filtering (paper refs [10],[11], simplified):
  /// random-vector logic simulation marks a coupling side false when the
  /// aggressor and victim never toggled in the same input event. This is a
  /// statistical heuristic, not a proof — more events make it safer — so it
  /// defaults off; the timing/magnitude rules above are conservative.
  bool functional = false;
  int functional_events = 256;
  std::uint64_t functional_seed = 1;
};

/// Per-victim false-aggressor decisions, precomputed over all couplings.
/// Sessions keep one instance alive across queries and refresh() only the
/// sides an edit touched.
class AggressorFilter {
 public:
  /// Evaluates all (victim, cap) sides under the builder's windows, one
  /// task per victim on `threads` workers (resolved like
  /// IterativeOptions::threads). Every task writes only its own victim's
  /// sides, so the verdicts are identical for any thread count.
  AggressorFilter(const net::Netlist& nl, const layout::Parasitics& par,
                  const NoiseAnalyzer& analyzer, const EnvelopeBuilder& builder,
                  const FilterOptions& options = {}, int threads = 1);

  /// Re-evaluates every side touching one of `nets` (as victim or as the
  /// coupled aggressor) under the builder's current windows, applying the
  /// same rules in the same order as construction. The functional toggle
  /// profile is logic-only and is reused as-is. Serial and deterministic.
  void refresh(std::span<const net::NetId> nets, const NoiseAnalyzer& analyzer,
               const EnvelopeBuilder& builder);

  /// True when `cap` can never produce delay noise on `victim`.
  bool is_false(net::NetId victim, layout::CapId cap) const;

  /// Number of (victim, cap) sides filtered out.
  size_t num_filtered() const { return num_filtered_; }
  /// Total number of (victim, cap) sides considered.
  size_t num_sides() const { return verdict_.size(); }

 private:
  /// Why a side was kept or dropped, in rule order; stored per side.
  enum Verdict : char {
    kKept = 0,
    kZeroCap,
    kLowPeak,
    kNoToggle,
    kOutsideWindow,
  };

  size_t side_index(net::NetId victim, layout::CapId cap) const;

  /// One side's verdict under the current windows. `all` is the
  /// all-couplings mask of the pass; `iv` lazily caches the victim's
  /// dominance interval across the victim's sides. The side's envelope is
  /// built fresh rather than taken from the builder's table: many sides
  /// tested here are never read again (filtered, or beyond the per-victim
  /// primary limit), and caching them would only hold memory.
  Verdict side_verdict(net::NetId victim, layout::CapId cap,
                       const NoiseAnalyzer& analyzer,
                       const EnvelopeBuilder& builder, const CouplingMask& all,
                       std::optional<wave::DominanceInterval>& iv) const;

  const net::Netlist* nl_;
  const layout::Parasitics* par_;
  FilterOptions opt_;
  std::unique_ptr<net::ToggleProfile> toggles_;
  std::vector<Verdict> verdict_;  // [2 * cap + (victim == net_b)]
  size_t num_filtered_ = 0;
};

}  // namespace tka::noise
