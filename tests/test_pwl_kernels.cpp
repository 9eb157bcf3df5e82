// Property tests for the PWL kernels against naive reference
// implementations (the pre-rewrite merged_times + per-time value() pattern,
// and for sum the point-major k-way scan, with value() in place of its
// cursors). The kernels promise *bit-identical* results, so every
// comparison below is bitwise, not within-tolerance. Also checks that the
// envelope-signature pre-filter is conservative: a signature reject must
// imply the exact dominance check fails (docs/KERNELS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "topk/irredundant_list.hpp"
#include "util/rng.hpp"
#include "wave/envelope.hpp"
#include "wave/pulse.hpp"
#include "wave/pwl.hpp"
#include "wave/ramp.hpp"

namespace tka::wave {
namespace {

constexpr double kTimeEps = 1e-12;  // mirrors pwl.cpp

// ---------------------------------------------------------------------------
// Naive reference implementations (the seed's O(n log n) kernels).
// ---------------------------------------------------------------------------

std::vector<double> naive_merged_times(const Pwl& a, const Pwl& b) {
  std::vector<double> times;
  times.reserve(a.size() + b.size());
  for (const Point& p : a.points()) times.push_back(p.t);
  for (const Point& p : b.points()) times.push_back(p.t);
  std::sort(times.begin(), times.end());
  times.erase(
      std::unique(times.begin(), times.end(),
                  [](double x, double y) { return std::abs(x - y) < kTimeEps; }),
      times.end());
  return times;
}

Pwl naive_plus(const Pwl& a, const Pwl& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  std::vector<Point> pts;
  const std::vector<double> times = naive_merged_times(a, b);
  pts.reserve(times.size());
  for (double t : times) pts.push_back({t, a.value(t) + b.value(t)});
  return Pwl(std::move(pts));
}

// Point-major reference for sum: the lowest head time (ties to the lowest
// term index) is the next grid time, any time within kTimeEps of the last
// kept one is dropped, and every term's value is added at every kept time,
// in term order. O(P·K), which the term-major kernel must match bit for bit.
Pwl naive_sum(std::span<const Pwl* const> terms) {
  std::vector<std::size_t> head(terms.size(), 0);
  std::vector<Point> pts;
  bool have_last = false;
  double last_t = 0.0;
  for (;;) {
    double t = std::numeric_limits<double>::infinity();
    std::size_t arg = terms.size();
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const std::span<const Point> p = terms[k]->points();
      if (head[k] < p.size() && p[head[k]].t < t) {
        t = p[head[k]].t;
        arg = k;
      }
    }
    if (arg == terms.size()) break;
    ++head[arg];
    if (have_last && t - last_t < kTimeEps) continue;
    have_last = true;
    last_t = t;
    double v = 0.0;
    for (const Pwl* w : terms) v += w->value(t);
    pts.push_back({t, v});
  }
  return Pwl(std::move(pts));
}

Pwl naive_upper_envelope(const Pwl& a, const Pwl& b) {
  if (a.empty()) return naive_upper_envelope(b, Pwl::constant(0.0));
  if (b.empty()) return naive_upper_envelope(a, Pwl::constant(0.0));
  const std::vector<double> times = naive_merged_times(a, b);
  std::vector<Point> pts;
  pts.reserve(times.size() * 2);
  for (size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    const double va = a.value(t);
    const double vb = b.value(t);
    pts.push_back({t, std::max(va, vb)});
    if (i + 1 < times.size()) {
      const double tn = times[i + 1];
      const double va2 = a.value(tn);
      const double vb2 = b.value(tn);
      const double d0 = va - vb;
      const double d1 = va2 - vb2;
      if ((d0 > 0 && d1 < 0) || (d0 < 0 && d1 > 0)) {
        const double f = d0 / (d0 - d1);
        const double tc = t + f * (tn - t);
        if (tc > t + kTimeEps && tc < tn - kTimeEps) {
          pts.push_back({tc, a.value(tc)});
        }
      }
    }
  }
  return Pwl(std::move(pts));
}

Pwl naive_clamped(const Pwl& w, double lo, double hi) {
  if (w.empty()) {
    const double z = std::clamp(0.0, lo, hi);
    return z == 0.0 ? Pwl() : Pwl::constant(z);
  }
  const std::span<const Point> points = w.points();
  std::vector<Point> pts;
  pts.reserve(points.size() * 2);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    pts.push_back({p.t, std::clamp(p.v, lo, hi)});
    if (i + 1 == points.size()) break;
    const Point& q = points[i + 1];
    for (double level : {lo, hi}) {
      const double d0 = p.v - level;
      const double d1 = q.v - level;
      if ((d0 > 0 && d1 < 0) || (d0 < 0 && d1 > 0)) {
        const double f = d0 / (d0 - d1);
        const double tc = p.t + f * (q.t - p.t);
        if (tc > p.t + kTimeEps && tc < q.t - kTimeEps) pts.push_back({tc, level});
      }
    }
    // The seed's tail-sort of the (at most two) crossings just emitted.
    auto tail = pts.end();
    int inserted = 0;
    while (tail != pts.begin() && (tail - 1)->t > p.t && inserted < 3) {
      --tail;
      ++inserted;
    }
    std::sort(tail, pts.end(),
              [](const Point& x, const Point& y) { return x.t < y.t; });
  }
  return Pwl(std::move(pts));
}

bool naive_encapsulates(const Pwl& a, const Pwl& b, double t_lo, double t_hi,
                        double tol) {
  auto check = [&](double t) { return a.value(t) >= b.value(t) - tol; };
  if (!check(t_lo) || !check(t_hi)) return false;
  for (const std::span<const Point> src : {a.points(), b.points()}) {
    for (const Point& p : src) {
      if (p.t <= t_lo || p.t >= t_hi) continue;
      if (!check(p.t)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Random waveform generation, including near-kTimeEps breakpoint spacing so
// the eps-dedup path of the merge sweeps is exercised.
// ---------------------------------------------------------------------------

Pwl random_pwl(Rng& rng, int max_points) {
  const int n = static_cast<int>(rng.next_u64() % (max_points + 1));
  if (n == 0) return Pwl();
  std::vector<Point> pts;
  pts.reserve(n);
  double t = rng.next_double(-2.0, 2.0);
  for (int i = 0; i < n; ++i) {
    pts.push_back({t, rng.next_double(-1.0, 2.0)});
    // Mostly ordinary gaps; sometimes a gap straddling kTimeEps so merged
    // breakpoints from two waveforms land within eps of each other.
    switch (rng.next_u64() % 8) {
      case 0: t += 2e-12; break;               // just above eps
      case 1: t += 9e-13; break;               // just below eps (deduped)
      default: t += rng.next_double(0.01, 0.8); break;
    }
  }
  return Pwl(std::move(pts));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const Pwl& got, const Pwl& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << ": " << got.to_string()
                                     << " vs " << want.to_string();
  for (size_t i = 0; i < got.size(); ++i) {
    // Bit-identity: same bits, so +0.0 and -0.0 differ too.
    EXPECT_EQ(bits(got.points()[i].t), bits(want.points()[i].t))
        << what << " t @" << i << ": " << got.points()[i].t << " vs "
        << want.points()[i].t;
    EXPECT_EQ(bits(got.points()[i].v), bits(want.points()[i].v))
        << what << " v @" << i << ": " << got.points()[i].v << " vs "
        << want.points()[i].v;
  }
}

// ---------------------------------------------------------------------------
// Merge-kernel properties.
// ---------------------------------------------------------------------------

TEST(PwlKernels, PlusMatchesNaive) {
  Rng rng(101);
  for (int it = 0; it < 2000; ++it) {
    const Pwl a = random_pwl(rng, 10);
    const Pwl b = random_pwl(rng, 10);
    expect_identical(a.plus(b), naive_plus(a, b), "plus");
  }
}

TEST(PwlKernels, MinusMatchesNaive) {
  Rng rng(102);
  for (int it = 0; it < 2000; ++it) {
    const Pwl a = random_pwl(rng, 10);
    const Pwl b = random_pwl(rng, 10);
    expect_identical(a.minus(b), naive_plus(a, b.scaled(-1.0)), "minus");
  }
}

TEST(PwlKernels, SumMatchesNaive) {
  Rng rng(103);
  for (int it = 0; it < 800; ++it) {
    const int k = static_cast<int>(rng.next_u64() % 8);
    std::vector<Pwl> storage;
    storage.reserve(k);
    for (int i = 0; i < k; ++i) storage.push_back(random_pwl(rng, 8));
    std::vector<const Pwl*> terms;
    for (const Pwl& w : storage) terms.push_back(&w);
    expect_identical(Pwl::sum(terms), naive_sum(terms), "sum");
  }
}

// One term of a fixpoint-scale sum. Most are trapezoidal envelopes whose
// EAT/LAT come from a small shared set, so breakpoint times coincide
// exactly (+0.0 against -0.0 included) or land within kTimeEps of each
// other; the rest are the cases the term-major loop treats specially:
// empty and one-point terms, terms with a nonzero front or back value that
// extrapolates over the whole grid, and -0.0 values.
Pwl fixpoint_term(Rng& rng) {
  static constexpr double kTimes[] = {
      0.0,  -0.0, 0.5, 0.5 + 4e-13, 0.5 + 9e-13, 0.5 + 1.5e-12,
      1.25, 1.25 + 2e-12, 2.0, 3.5};
  static constexpr double kLevels[] = {0.3, -0.0, 0.0, -0.2, 1.2};
  auto pick_time = [&] { return kTimes[rng.next_u64() % std::size(kTimes)]; };
  auto pick_level = [&] { return kLevels[rng.next_u64() % std::size(kLevels)]; };
  const std::uint64_t kind = rng.next_u64() % 16;
  if (kind == 0) return Pwl();
  if (kind == 1) return Pwl::constant(pick_level());
  if (kind == 2) return make_rising_ramp(pick_time(), rng.next_double(0.05, 1.0), 1.2);
  if (kind == 3) return make_falling_ramp(pick_time(), rng.next_double(0.05, 1.0), 1.2);
  if (kind == 4) {
    // Flat stretches at a nonzero level and at -0.0 between both ends.
    const double t0 = pick_time();
    return Pwl({{t0, pick_level()}, {t0 + 0.3, -0.0}, {t0 + 0.6, -0.0},
                {t0 + 0.9, 0.25}, {t0 + 1.2, 0.25}, {t0 + 1.5, pick_level()}});
  }
  const PulseShape shape{rng.next_double(0.01, 0.4), rng.next_double(0.02, 0.2),
                         rng.next_double(0.05, 0.5)};
  double eat = pick_time();
  double lat = pick_time();
  if (lat < eat) std::swap(eat, lat);
  const Pwl env = make_trapezoidal_envelope(shape, eat, lat);
  // Negated envelopes end at -0.0 on both sides.
  return kind == 5 ? env.scaled(-1.0) : env;
}

TEST(PwlKernels, SumMatchesNaiveAtFixpointScale) {
  Rng rng(109);
  for (int it = 0; it < 200; ++it) {
    const int k = static_cast<int>(rng.next_u64() % 161);
    std::vector<Pwl> storage;
    storage.reserve(k);
    for (int i = 0; i < k; ++i) storage.push_back(fixpoint_term(rng));
    std::vector<const Pwl*> terms;
    for (const Pwl& w : storage) terms.push_back(&w);
    expect_identical(Pwl::sum(terms), naive_sum(terms), "sum");
  }
}

TEST(PwlKernels, UpperEnvelopeMatchesNaive) {
  Rng rng(104);
  for (int it = 0; it < 2000; ++it) {
    const Pwl a = random_pwl(rng, 10);
    const Pwl b = random_pwl(rng, 10);
    expect_identical(a.upper_envelope(b), naive_upper_envelope(a, b),
                     "upper_envelope");
  }
}

TEST(PwlKernels, ClampedMatchesNaive) {
  Rng rng(105);
  for (int it = 0; it < 2000; ++it) {
    const Pwl a = random_pwl(rng, 10);
    double lo = rng.next_double(-1.0, 1.0);
    double hi = rng.next_double(-1.0, 2.0);
    if (hi < lo) std::swap(lo, hi);
    expect_identical(a.clamped(lo, hi), naive_clamped(a, lo, hi), "clamped");
  }
}

TEST(PwlKernels, EncapsulatesMatchesNaive) {
  Rng rng(106);
  int agree_true = 0;
  for (int it = 0; it < 4000; ++it) {
    const Pwl a = random_pwl(rng, 10);
    // Bias towards near-dominating pairs so both outcomes are exercised.
    const Pwl b = (it % 2 == 0) ? random_pwl(rng, 10)
                                : a.scaled(rng.next_double(0.9, 1.1));
    double lo = rng.next_double(-2.0, 2.0);
    double hi = lo + rng.next_double(0.0, 6.0);
    const double tol = (it % 3 == 0) ? 1e-3 : 1e-9;
    const bool got = a.encapsulates(b, lo, hi, tol);
    EXPECT_EQ(got, naive_encapsulates(a, b, lo, hi, tol));
    agree_true += got ? 1 : 0;
  }
  EXPECT_GT(agree_true, 0);  // the property must be exercised in both branches
}

// ---------------------------------------------------------------------------
// Signature conservativeness: a reject must imply the exact check fails.
// ---------------------------------------------------------------------------

TEST(PwlKernels, SignatureRejectImpliesNotDominating) {
  Rng rng(107);
  int rejects = 0;
  for (int it = 0; it < 4000; ++it) {
    const Pwl a = random_pwl(rng, 12);
    const Pwl b = (it % 2 == 0) ? random_pwl(rng, 12)
                                : a.scaled(rng.next_double(0.8, 1.2));
    const double lo = rng.next_double(-2.0, 0.0);
    const DominanceInterval iv{lo, lo + rng.next_double(0.5, 6.0)};
    const EnvelopeSignature sa = make_signature(a, iv);
    const EnvelopeSignature sb = make_signature(b, iv);
    for (const double tol : {1e-9, 1e-6, 1e-3}) {
      if (signature_rejects(sa, sb, tol)) {
        ++rejects;
        EXPECT_FALSE(dominates(a, b, iv, tol))
            << "signature rejected a dominating pair: a=" << a.to_string()
            << " b=" << b.to_string() << " iv=[" << iv.lo << ", " << iv.hi
            << "] tol=" << tol;
      }
    }
  }
  EXPECT_GT(rejects, 0);  // the filter must actually fire on random data
}

TEST(PwlKernels, SignatureMatchesOnlyItsInterval) {
  const Pwl a({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}});
  const DominanceInterval iv{0.0, 2.0};
  const EnvelopeSignature sig = make_signature(a, iv);
  EXPECT_TRUE(signature_matches(sig, iv));
  EXPECT_FALSE(signature_matches(sig, DominanceInterval{0.0, 3.0}));
  EXPECT_FALSE(signature_matches(sig, DominanceInterval{-1.0, 2.0}));
  EXPECT_FALSE(signature_matches(EnvelopeSignature{}, iv));
}

TEST(PwlKernels, SignatureInvalidNeverRejects) {
  const Pwl a({{0.0, 0.0}, {1.0, 1.0}});
  const DominanceInterval iv{0.0, 1.0};
  const EnvelopeSignature valid = make_signature(a, iv);
  const EnvelopeSignature invalid;
  EXPECT_FALSE(signature_rejects(invalid, valid, 1e-6));
  EXPECT_FALSE(signature_rejects(valid, invalid, 1e-6));
}

// ---------------------------------------------------------------------------
// Empty-waveform contract of last_time_at_or_below (the fixed dead branch).
// ---------------------------------------------------------------------------

TEST(PwlKernels, EmptyWaveformLastTimeAtOrBelowIsAlwaysNullopt) {
  const Pwl empty;
  // Empty == identically zero. level >= 0: the set {t : 0 <= level} is
  // unbounded above; level < 0: the set is empty. Both yield nullopt.
  EXPECT_EQ(empty.last_time_at_or_below(1.0), std::nullopt);
  EXPECT_EQ(empty.last_time_at_or_below(0.0), std::nullopt);
  EXPECT_EQ(empty.last_time_at_or_below(-1.0), std::nullopt);
}

// ---------------------------------------------------------------------------
// IList::best() incremental tracking matches a linear rescan.
// ---------------------------------------------------------------------------

const topk::CandidateSet* rescan_best(std::span<const topk::CandidateSet> sets) {
  const topk::CandidateSet* best = nullptr;
  for (const topk::CandidateSet& s : sets) {
    if (best == nullptr || s.score > best->score) best = &s;
  }
  return best;
}

TEST(PwlKernels, IListBestMatchesLinearRescan) {
  Rng rng(108);
  topk::IList list;
  for (int it = 0; it < 3000; ++it) {
    topk::CandidateSet s;
    // Small member universe so try_add frequently hits the replace path;
    // quantized scores so exact ties (and the lowest-index tie-break) occur.
    s.members = {static_cast<layout::CapId>(rng.next_u64() % 12)};
    s.score = static_cast<double>(rng.next_u64() % 16);
    list.try_add(std::move(s));
    ASSERT_FALSE(list.empty());
    EXPECT_EQ(&list.best(), rescan_best(list.sets()));
  }
  list.clear();
  EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace tka::wave
