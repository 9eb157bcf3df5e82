// Piecewise-linear waveform algebra.
//
// Everything in the linear noise framework — victim transitions, coupling
// noise pulses, trapezoidal noise envelopes, combined envelopes and noisy
// waveforms — is represented as a piecewise-linear voltage-vs-time curve.
// Outside its breakpoint span a waveform extrapolates with its boundary
// value held constant (signals settle; pulses return to zero).
//
// Breakpoints are held in a PointStore (wave/point_store.hpp): degenerate
// waveforms inline, larger ones in one heap block each — the merge-sweep
// kernels below reserve an upper bound once and write their results
// straight into the store.
//
// Units across the library: time in nanoseconds, voltage in volts.
#pragma once

#include <cstddef>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wave/point_store.hpp"

namespace tka::wave {

/// Immutable-ish piecewise-linear waveform: strictly increasing breakpoint
/// times, linear interpolation between them, constant extrapolation beyond
/// the ends. An empty waveform is identically zero.
class Pwl {
 public:
  Pwl() = default;

  /// Builds from breakpoints; times must be non-decreasing (duplicates of
  /// equal time are merged, keeping the later value — a zero-width step).
  explicit Pwl(std::vector<Point> points);

  /// Same contract, taking ownership of an already-populated store (the
  /// allocation-free path the kernels and envelope builders use).
  explicit Pwl(PointStore points);

  /// The constant-zero waveform.
  static Pwl zero() { return Pwl(); }

  /// A constant waveform of value `v` (no breakpoints needed; represented
  /// with a single anchor at t=0 so arithmetic keeps the value).
  static Pwl constant(double v);

  bool empty() const { return points_.empty(); }
  std::span<const Point> points() const { return points_.span(); }
  size_t size() const { return points_.size(); }

  /// Exact breakpoint-sequence equality (same times and values, bitwise).
  bool same_points(const Pwl& other) const;

  /// Heap bytes owned by the point storage (0 while the points fit the
  /// inline buffer) — feeds the mem.* footprint gauges.
  std::size_t heap_bytes() const { return points_.heap_bytes(); }

  /// Reallocates spilled storage down to the exact point count. Kernels
  /// grow stores by power-of-two doubling, which is right for transient
  /// waveforms; call this before parking one in a long-lived cache so the
  /// resident footprint matches the points actually held.
  void compact() { points_.shrink_to_fit(); }

  /// First/last breakpoint time. Asserts non-empty.
  double t_front() const;
  double t_back() const;

  /// Value at time t (linear interpolation, constant extrapolation).
  double value(double t) const;

  /// Maximum breakpoint value (0 for the empty waveform).
  double peak() const;
  /// Time of the first breakpoint attaining peak(). t_front() fallback.
  double peak_time() const;
  /// Minimum breakpoint value (0 for the empty waveform).
  double min_value() const;

  /// Waveform shifted right by dt.
  Pwl shifted(double dt) const;

  /// Waveform scaled by factor a (values only).
  Pwl scaled(double a) const;

  /// Pointwise sum. Single-pass two-pointer merge sweep, O(n + m).
  Pwl plus(const Pwl& other) const;

  /// Pointwise difference (this - other). Negation is folded into the
  /// merge sweep (no intermediate negated waveform); IEEE negation is
  /// exact, so the result is bit-identical to plus(other.scaled(-1)).
  Pwl minus(const Pwl& other) const;

  /// Pointwise maximum (upper envelope); inserts crossing breakpoints.
  /// Single-pass merge sweep, O(n + m).
  Pwl upper_envelope(const Pwl& other) const;

  /// Values clamped to [lo, hi].
  Pwl clamped(double lo, double hi) const;

  /// True if this(t) >= other(t) - tol for every t in [t_lo, t_hi].
  /// Both waveforms are linear between merged breakpoints, so the check is
  /// exact on the merged breakpoint set plus interval ends. Linear co-walk
  /// of both breakpoint lists, O(n + m) (docs/KERNELS.md).
  bool encapsulates(const Pwl& other, double t_lo, double t_hi,
                    double tol = 1e-9) const;

  /// Latest time at which the waveform is <= level. For a rising noisy
  /// victim transition this is the noisy t50 (the final 50%-Vdd crossing).
  /// Returns nullopt when the waveform never reaches <= level, or when it
  /// ends at or below level (so the "latest" time is unbounded) — in
  /// particular always nullopt for the empty (identically zero) waveform.
  std::optional<double> last_time_at_or_below(double level) const;

  /// Earliest time at which the waveform is >= level; nullopt if never, or
  /// if it starts at/above level (unbounded below).
  std::optional<double> first_time_at_or_above(double level) const;

  /// Area under the curve between the first and last breakpoints
  /// (trapezoidal; exact for PWL).
  double integral() const;

  /// Removes breakpoints whose removal changes the waveform by at most
  /// `tol` anywhere (greedy collinearity sweep). Bounds breakpoint growth
  /// when envelopes are combined repeatedly.
  Pwl simplified(double tol) const;

  /// Human-readable dump for debugging/tests.
  std::string to_string() const;

  /// Pointwise sum of many waveforms. The breakpoints are every term's
  /// breakpoint times in ascending order (equal times in term order), each
  /// dropped when it lies within the dedup epsilon of the last one kept;
  /// each value is the terms' values there, added in term order from +0.0.
  /// Values are built term-major: a term adds only where its value can be
  /// nonzero, which changes no bit, since a sum that starts at +0.0 never
  /// becomes -0.0 and so a ±0 addend leaves it unchanged. O(P log K) for
  /// the times of P breakpoints over K terms, plus one step per grid point
  /// inside each term's span (docs/KERNELS.md). Not bitwise equal to
  /// folding plus(): a partial sum interpolates between its own points.
  static Pwl sum(std::span<const Pwl* const> terms);

 private:
  /// Adopts a store the merge-sweep kernels built: already sorted with
  /// consecutive times >= the dedup epsilon apart, so the constructor's
  /// duplicate-merge pass (a no-op on such input) is skipped entirely.
  static Pwl from_sorted_unique(PointStore pts);

  // Invariant: points_ sorted by strictly increasing t.
  PointStore points_;
};

}  // namespace tka::wave
