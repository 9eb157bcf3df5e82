// Unit and property tests for the PWL waveform algebra, pulses, ramps and
// trapezoidal envelopes — the numerical core of the linear noise framework.
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "wave/envelope.hpp"
#include "wave/pulse.hpp"
#include "wave/pwl.hpp"
#include "wave/ramp.hpp"

namespace tka::wave {
namespace {

Pwl triangle(double t0, double tp, double t1, double peak) {
  return Pwl({{t0, 0.0}, {tp, peak}, {t1, 0.0}});
}

TEST(Pwl, EmptyIsZeroEverywhere) {
  Pwl w;
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.value(-100.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1e9), 0.0);
  EXPECT_DOUBLE_EQ(w.peak(), 0.0);
  EXPECT_DOUBLE_EQ(w.integral(), 0.0);
}

TEST(Pwl, ValueInterpolatesLinearly) {
  Pwl w({{0.0, 0.0}, {1.0, 2.0}, {3.0, 0.0}});
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.0), 2.0);
  EXPECT_DOUBLE_EQ(w.value(2.0), 1.0);
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);  // constant extrapolation
  EXPECT_DOUBLE_EQ(w.value(9.0), 0.0);
}

TEST(Pwl, ConstantWaveform) {
  Pwl c = Pwl::constant(0.7);
  EXPECT_DOUBLE_EQ(c.value(-5.0), 0.7);
  EXPECT_DOUBLE_EQ(c.value(123.0), 0.7);
}

TEST(Pwl, DuplicateTimesMergeKeepingLater) {
  Pwl w({{0.0, 0.0}, {1.0, 1.0}, {1.0, 3.0}, {2.0, 0.0}});
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.value(1.0), 3.0);
}

TEST(Pwl, PeakAndPeakTime) {
  Pwl w = triangle(0.0, 1.5, 4.0, 2.5);
  EXPECT_DOUBLE_EQ(w.peak(), 2.5);
  EXPECT_DOUBLE_EQ(w.peak_time(), 1.5);
  EXPECT_DOUBLE_EQ(w.min_value(), 0.0);
}

TEST(Pwl, ShiftMovesTimes) {
  Pwl w = triangle(0.0, 1.0, 2.0, 1.0).shifted(3.0);
  EXPECT_DOUBLE_EQ(w.value(4.0), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.0), 0.0);
}

TEST(Pwl, ScaleMultipliesValues) {
  Pwl w = triangle(0.0, 1.0, 2.0, 1.0).scaled(-2.0);
  EXPECT_DOUBLE_EQ(w.value(1.0), -2.0);
  EXPECT_DOUBLE_EQ(w.min_value(), -2.0);
}

TEST(Pwl, PlusExactOnMergedBreakpoints) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  Pwl b = triangle(0.5, 1.5, 2.5, 2.0);
  Pwl s = a.plus(b);
  for (double t = -0.5; t <= 3.0; t += 0.1) {
    EXPECT_NEAR(s.value(t), a.value(t) + b.value(t), 1e-12) << "t=" << t;
  }
}

TEST(Pwl, PlusWithEmptyIsIdentity) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  EXPECT_TRUE(a.plus(Pwl()).same_points(a));
  EXPECT_TRUE(Pwl().plus(a).same_points(a));
}

TEST(Pwl, MinusIsInverseOfPlus) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  Pwl b = triangle(0.2, 0.9, 2.2, 0.7);
  Pwl diff = a.plus(b).minus(b);
  for (double t = -0.5; t <= 3.0; t += 0.05) {
    EXPECT_NEAR(diff.value(t), a.value(t), 1e-12);
  }
}

TEST(Pwl, UpperEnvelopeIsPointwiseMax) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  Pwl b = triangle(0.5, 1.5, 2.5, 1.2);
  Pwl m = a.upper_envelope(b);
  for (double t = -0.5; t <= 3.0; t += 0.01) {
    EXPECT_NEAR(m.value(t), std::max(a.value(t), b.value(t)), 1e-9) << "t=" << t;
  }
}

TEST(Pwl, UpperEnvelopeInsertsCrossings) {
  Pwl a({{0.0, 0.0}, {2.0, 2.0}});
  Pwl b({{0.0, 2.0}, {2.0, 0.0}});
  Pwl m = a.upper_envelope(b);
  EXPECT_NEAR(m.value(1.0), 1.0, 1e-12);   // crossing point value
  EXPECT_NEAR(m.value(0.5), 1.5, 1e-12);   // b side
  EXPECT_NEAR(m.value(1.5), 1.5, 1e-12);   // a side
}

TEST(Pwl, ClampIntroducesThresholdBreakpoints) {
  Pwl w({{0.0, -1.0}, {2.0, 3.0}});
  Pwl c = w.clamped(0.0, 2.0);
  for (double t = -0.5; t <= 2.5; t += 0.01) {
    EXPECT_NEAR(c.value(t), std::clamp(w.value(t), 0.0, 2.0), 1e-9) << t;
  }
}

TEST(Pwl, EncapsulatesBasic) {
  Pwl big = triangle(0.0, 1.0, 4.0, 2.0);
  Pwl small = triangle(0.5, 1.0, 3.0, 1.0);
  EXPECT_TRUE(big.encapsulates(small, 0.0, 4.0));
  EXPECT_FALSE(small.encapsulates(big, 0.0, 4.0));
}

TEST(Pwl, EncapsulatesOnlyInsideInterval) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  Pwl b = triangle(3.0, 4.0, 5.0, 1.0);
  // Outside [0,2], b exceeds a; inside it does not.
  EXPECT_TRUE(a.encapsulates(b, 0.0, 2.0));
  EXPECT_FALSE(a.encapsulates(b, 0.0, 5.0));
}

TEST(Pwl, EncapsulatesSelf) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  EXPECT_TRUE(a.encapsulates(a, -1.0, 3.0));
}

TEST(Pwl, LastTimeAtOrBelowOnRamp) {
  Pwl ramp = make_rising_ramp(5.0, 1.0, 1.0);
  auto t50 = ramp.last_time_at_or_below(0.5);
  ASSERT_TRUE(t50.has_value());
  EXPECT_NEAR(*t50, 5.0, 1e-12);
}

TEST(Pwl, LastTimeWithDipAfterCrossing) {
  // Rises through 0.5, dips below, recovers: the *last* crossing counts.
  Pwl w({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.2}, {3.0, 1.0}});
  auto t = w.last_time_at_or_below(0.5);
  ASSERT_TRUE(t.has_value());
  // Between t=2 (0.2) and t=3 (1.0): crosses 0.5 at 2.375.
  EXPECT_NEAR(*t, 2.0 + 0.3 / 0.8, 1e-12);
}

TEST(Pwl, LastTimeNulloptWhenEndsBelow) {
  Pwl w({{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_FALSE(w.last_time_at_or_below(0.5).has_value());
}

TEST(Pwl, FirstTimeAtOrAbove) {
  Pwl ramp = make_rising_ramp(5.0, 1.0, 1.0);
  auto t = ramp.first_time_at_or_above(0.5);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-12);
  EXPECT_FALSE(Pwl::constant(2.0).first_time_at_or_above(0.5).has_value());
}

TEST(Pwl, IntegralOfTriangle) {
  Pwl w = triangle(0.0, 1.0, 2.0, 1.0);
  EXPECT_NEAR(w.integral(), 1.0, 1e-12);
}

TEST(Pwl, SimplifyRemovesCollinear) {
  Pwl w({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {4.0, 0.0}});
  Pwl s = w.simplified(1e-9);
  EXPECT_EQ(s.size(), 3u);
  for (double t = 0.0; t <= 4.0; t += 0.1) EXPECT_NEAR(s.value(t), w.value(t), 1e-9);
}

TEST(Pwl, SimplifyBoundsError) {
  Rng rng(5);
  std::vector<Point> pts;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({t, rng.next_double(0.0, 1.0)});
    t += rng.next_double(0.01, 0.1);
  }
  Pwl w(std::move(pts));
  const double tol = 0.05;
  Pwl s = w.simplified(tol);
  EXPECT_LT(s.size(), w.size());
  for (double x = w.t_front(); x <= w.t_back(); x += 0.003) {
    EXPECT_LE(std::abs(s.value(x) - w.value(x)), tol + 1e-9);
  }
}

TEST(Pwl, SumOfManyMatchesFoldedPlus) {
  Pwl a = triangle(0.0, 1.0, 2.0, 1.0);
  Pwl b = triangle(0.5, 1.0, 3.0, 0.5);
  Pwl c = triangle(1.0, 2.0, 4.0, 2.0);
  const Pwl* terms[] = {&a, &b, &c};
  Pwl s = Pwl::sum(terms);
  Pwl folded = a.plus(b).plus(c);
  for (double t = -1.0; t <= 5.0; t += 0.05) {
    EXPECT_NEAR(s.value(t), folded.value(t), 1e-12);
  }
}

TEST(Ramp, RisingRampShape) {
  Pwl r = make_rising_ramp(2.0, 1.0, 1.2);
  EXPECT_DOUBLE_EQ(r.value(1.4), 0.0);
  EXPECT_DOUBLE_EQ(r.value(2.0), 0.6);
  EXPECT_DOUBLE_EQ(r.value(2.6), 1.2);
}

TEST(Ramp, FallingRampShape) {
  Pwl r = make_falling_ramp(2.0, 1.0, 1.2);
  EXPECT_DOUBLE_EQ(r.value(1.4), 1.2);
  EXPECT_DOUBLE_EQ(r.value(2.0), 0.6);
  EXPECT_DOUBLE_EQ(r.value(2.6), 0.0);
}

TEST(Pulse, ShapeAndPeak) {
  PulseShape s{0.3, 0.1, 0.5};
  Pwl p = make_pulse(s, 1.0);
  EXPECT_NEAR(p.peak(), 0.3, 1e-12);
  EXPECT_NEAR(p.peak_time(), 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(p.value(0.9), 0.0);
  EXPECT_DOUBLE_EQ(p.value(100.0), 0.0);  // returns to zero
  EXPECT_GE(p.min_value(), 0.0);
}

TEST(Pulse, DecayFollowsExponential) {
  PulseShape s{1.0, 0.1, 1.0};
  Pwl p = make_pulse(s, 0.0, 24);
  // At one tau past the peak the value should be near 1/e.
  EXPECT_NEAR(p.value(0.1 + 1.0), std::exp(-1.0), 0.05);
  EXPECT_NEAR(p.value(0.1 + 2.0), std::exp(-2.0), 0.05);
}

TEST(Pulse, WidthMatchesBreakpoints) {
  PulseShape s{0.5, 0.2, 0.4};
  Pwl p = make_pulse(s, 2.0);
  EXPECT_NEAR(p.t_back() - p.t_front(), pulse_width(s), 1e-9);
}

TEST(Pulse, ZeroPeakIsEmpty) {
  PulseShape s{0.0, 0.1, 0.5};
  EXPECT_TRUE(make_pulse(s, 0.0).empty());
}

TEST(Envelope, DegenerateWindowEqualsPulse) {
  PulseShape s{0.4, 0.1, 0.3};
  Pwl env = make_trapezoidal_envelope(s, 2.0, 2.0);
  Pwl pulse = make_pulse(s, 2.0);
  for (double t = 1.5; t <= 5.0; t += 0.01) {
    EXPECT_NEAR(env.value(t), pulse.value(t), 1e-12);
  }
}

TEST(Envelope, TrapezoidHasPlateau) {
  PulseShape s{0.4, 0.1, 0.3};
  Pwl env = make_trapezoidal_envelope(s, 1.0, 3.0);
  // Plateau spans [eat+rise, lat+rise] at the peak value.
  for (double t = 1.1; t <= 3.1; t += 0.05) {
    EXPECT_NEAR(env.value(t), 0.4, 1e-9) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(env.value(0.9), 0.0);
  EXPECT_DOUBLE_EQ(env.value(50.0), 0.0);
}

TEST(Envelope, EnvelopeBoundsAnyAlignmentPulse) {
  // Property (paper Fig 2): the trapezoid must encapsulate the pulse fired
  // anywhere inside the timing window.
  PulseShape s{0.35, 0.15, 0.45};
  const double eat = 1.0;
  const double lat = 2.5;
  Pwl env = make_trapezoidal_envelope(s, eat, lat);
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const double t0 = rng.next_double(eat, lat);
    Pwl pulse = make_pulse(s, t0);
    EXPECT_TRUE(env.encapsulates(pulse, 0.0, 20.0, 1e-6)) << "t0=" << t0;
  }
}

TEST(Envelope, CombineIsSuperposition) {
  PulseShape s1{0.2, 0.1, 0.3};
  PulseShape s2{0.3, 0.2, 0.2};
  Pwl e1 = make_trapezoidal_envelope(s1, 0.0, 1.0);
  Pwl e2 = make_trapezoidal_envelope(s2, 0.5, 2.0);
  const Pwl* terms[] = {&e1, &e2};
  Pwl combined = combine_envelopes(terms);
  for (double t = -0.5; t <= 6.0; t += 0.05) {
    EXPECT_NEAR(combined.value(t), e1.value(t) + e2.value(t), 1e-12);
  }
}

TEST(Envelope, DominanceBasics) {
  DominanceInterval iv{0.0, 10.0};
  Pwl big = make_trapezoidal_envelope({0.5, 0.1, 0.5}, 1.0, 4.0);
  Pwl small = make_trapezoidal_envelope({0.3, 0.1, 0.5}, 1.5, 3.0);
  EXPECT_TRUE(dominates(big, small, iv));
  EXPECT_FALSE(dominates(small, big, iv));
  EXPECT_EQ(compare(big, small, iv), DomOrder::kADominatesB);
  EXPECT_EQ(compare(small, big, iv), DomOrder::kBDominatesA);
}

TEST(Envelope, IncomparableEnvelopes) {
  DominanceInterval iv{0.0, 10.0};
  // Same peak, disjoint supports: neither encapsulates the other.
  Pwl a = make_trapezoidal_envelope({0.3, 0.1, 0.3}, 1.0, 2.0);
  Pwl b = make_trapezoidal_envelope({0.3, 0.1, 0.3}, 5.0, 6.0);
  EXPECT_EQ(compare(a, b, iv), DomOrder::kIncomparable);
}

TEST(Envelope, EqualEnvelopesCountAsDominated) {
  DominanceInterval iv{0.0, 10.0};
  Pwl a = make_trapezoidal_envelope({0.3, 0.1, 0.3}, 1.0, 2.0);
  EXPECT_EQ(compare(a, a, iv), DomOrder::kADominatesB);
}

// Property sweep: envelope widening (LAT extension) always yields a
// dominating envelope — the monotonicity higher-order aggressors rely on.
class EnvelopeWidening : public ::testing::TestWithParam<double> {};

TEST_P(EnvelopeWidening, WiderWindowDominates) {
  const double extension = GetParam();
  PulseShape s{0.4, 0.12, 0.35};
  Pwl base = make_trapezoidal_envelope(s, 1.0, 2.0);
  Pwl wide = make_trapezoidal_envelope(s, 1.0, 2.0 + extension);
  DominanceInterval iv{0.0, 15.0};
  EXPECT_TRUE(dominates(wide, base, iv));
}

INSTANTIATE_TEST_SUITE_P(Widths, EnvelopeWidening,
                         ::testing::Values(0.0, 0.05, 0.2, 0.7, 2.0, 8.0));

// Property sweep: random envelope pairs — dominance must agree with a dense
// pointwise check.
class DominanceRandom : public ::testing::TestWithParam<int> {};

TEST_P(DominanceRandom, MatchesDenseCheck) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DominanceInterval iv{0.0, 8.0};
  for (int trial = 0; trial < 20; ++trial) {
    PulseShape s1{rng.next_double(0.05, 0.5), rng.next_double(0.05, 0.3),
                  rng.next_double(0.1, 0.6)};
    PulseShape s2{rng.next_double(0.05, 0.5), rng.next_double(0.05, 0.3),
                  rng.next_double(0.1, 0.6)};
    const double e1 = rng.next_double(0.0, 3.0);
    const double e2 = rng.next_double(0.0, 3.0);
    Pwl a = make_trapezoidal_envelope(s1, e1, e1 + rng.next_double(0.0, 2.0));
    Pwl b = make_trapezoidal_envelope(s2, e2, e2 + rng.next_double(0.0, 2.0));
    bool dense_ab = true;
    for (double t = iv.lo; t <= iv.hi; t += 0.004) {
      if (a.value(t) < b.value(t) - 1e-7) {
        dense_ab = false;
        break;
      }
    }
    // The analytic check may be stricter between samples, never looser.
    if (dominates(a, b, iv, 1e-9)) {
      EXPECT_TRUE(dense_ab);
    }
    if (!dense_ab) {
      EXPECT_FALSE(dominates(a, b, iv, 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceRandom, ::testing::Range(1, 9));

}  // namespace
}  // namespace tka::wave
