#include "wave/pwl.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace tka::wave {
namespace {

constexpr double kTimeEps = 1e-12;

// Monotone segment cursor: value_at(t) reproduces Pwl::value(t) bit-for-bit
// (same segment lookup semantics, same interpolation expression) but finds
// the segment by advancing an index instead of a binary search. Calls must
// come with non-decreasing t, which every merge sweep below guarantees —
// that makes a full sweep O(n) instead of O(n log n).
//
// With Negate the cursor reads the waveform as if every value had been
// multiplied by -1.0 first: the interpolation runs on the pre-negated
// values, exactly what it would see on a materialized scaled(-1.0) copy, so
// subtract-via-negate sweeps stay bit-identical to the two-pass form. The
// flag is a template parameter so the common Negate=false instantiation is
// the plain cursor with no branch in the interpolation path.
template <bool Negate = false>
class SegCursor {
 public:
  explicit SegCursor(std::span<const Point> pts) {
    // Cached so the boundary checks don't reload through the span each
    // call: the sweeps interleave value_at with stores into the output
    // store, and the compiler can't prove those stores leave the input
    // points unchanged (they do — the output block is freshly allocated).
    if (!pts.empty()) {
      cur_ = pts.data();
      last_ = pts.data() + (pts.size() - 1);
      front_t_ = pts.front().t;
      front_v_ = load(pts.front().v);
      back_t_ = pts.back().t;
      back_v_ = load(pts.back().v);
    }
  }

  double value_at(double t) {
    if (cur_ == nullptr) return 0.0;
    if (t <= front_t_) return front_v_;
    if (t >= back_t_) return back_v_;
    const Point* cur = cur_;
    while (cur + 1 < last_ && cur[1].t <= t) ++cur;
    cur_ = cur;
    const Point& lo = cur[0];
    const Point& hi = cur[1];
    const double lv = load(lo.v);
    // Exact breakpoint hit — the common case in a merge sweep, where every
    // merged time is a breakpoint of one operand. The interpolation factor
    // is then +0.0 ((t - lo.t) is +0.0 over a positive span), so the same
    // expression is computed with the division skipped. The span-collapse
    // guard below can't fire here: the constructor invariant keeps
    // consecutive breakpoint times >= kTimeEps apart.
    if (t == lo.t) return lv + 0.0 * (load(hi.v) - lv);
    const double span = hi.t - lo.t;
    if (span < kTimeEps) return load(hi.v);
    const double f = (t - lo.t) / span;
    return lv + f * (load(hi.v) - lv);
  }

 private:
  static double load(double v) {
    if constexpr (Negate) {
      return v * -1.0;
    } else {
      return v;
    }
  }

  const Point* cur_ = nullptr;   // current segment's left breakpoint
  const Point* last_ = nullptr;  // final breakpoint (segment right bound cap)
  double front_t_ = 0.0;
  double front_v_ = 0.0;
  double back_t_ = 0.0;
  double back_v_ = 0.0;
};

// Two-pointer walk over the merged, eps-deduplicated breakpoint times of two
// waveforms, in ascending order. Duplicate handling matches the former
// sort + unique(|x-y| < kTimeEps) exactly: a time is dropped when it lies
// within kTimeEps of the last *emitted* time.
class MergedTimes {
 public:
  MergedTimes(std::span<const Point> a, std::span<const Point> b)
      : pa_(a.data()),
        ea_(a.data() + a.size()),
        pb_(b.data()),
        eb_(b.data() + b.size()) {}

  /// Next merged time into *t; false when both lists are exhausted.
  bool next(double* t) {
    while (pa_ != ea_ || pb_ != eb_) {
      double cand;
      if (pb_ == eb_ || (pa_ != ea_ && pa_->t <= pb_->t)) {
        cand = (pa_++)->t;
      } else {
        cand = (pb_++)->t;
      }
      if (have_last_ && cand - last_ < kTimeEps) continue;
      have_last_ = true;
      last_ = cand;
      *t = cand;
      return true;
    }
    return false;
  }

 private:
  const Point* pa_;
  const Point* ea_;
  const Point* pb_;
  const Point* eb_;
  bool have_last_ = false;
  double last_ = 0.0;
};

obs::Counter& merge_points_counter() {
  static obs::Counter& c = obs::registry().counter("pwl.merge_points");
  return c;
}

// Merge equal-time duplicates in place, keeping the later value. Shared by
// both constructors; write-index compaction, no allocation. The leading
// read-only scan makes the common no-duplicate case a single pass with no
// stores.
void merge_duplicate_times(PointStore& pts) {
  const std::size_t n = pts.size();
  std::size_t i = 1;
  while (i < n && std::abs(pts[i - 1].t - pts[i].t) >= kTimeEps) ++i;
  if (i >= n) return;
  std::size_t w = i;
  for (; i < n; ++i) {
    if (w > 0 && std::abs(pts[w - 1].t - pts[i].t) < kTimeEps) {
      pts[w - 1].v = pts[i].v;
    } else {
      pts[w++] = pts[i];
    }
  }
  pts.truncate(w);
}

// Two-pointer merge sweep shared by plus and minus. NegateB folds the
// scaled(-1.0) of the subtrahend into the read path (exact: IEEE negation
// and interpolation on pre-negated values are the values the two-pass form
// computes).
template <bool NegateB>
PointStore plus_sweep(std::span<const Point> a, std::span<const Point> b) {
  PointStore pts;
  pts.reserve(a.size() + b.size());
  MergedTimes times(a, b);
  SegCursor<> ca(a);
  SegCursor<NegateB> cb(b);
  // Raw writes into the reserved block: the merged sequence can't exceed
  // a.size() + b.size(), so the per-push capacity check is dead weight.
  Point* out = pts.data();
  std::size_t w = 0;
  double t;
  while (times.next(&t)) out[w++] = {t, ca.value_at(t) + cb.value_at(t)};
  pts.set_size(w);
  return pts;
}

// Stable merge of the sorted breakpoint runs [l, le) and [r, re) by time
// into `out`; an equal time from the left run comes first.
Point* merge_runs(const Point* l, const Point* le, const Point* r,
                  const Point* re, Point* out) {
  while (l != le && r != re) {
    const bool take_r = r->t < l->t;
    *out++ = *(take_r ? r : l);
    r += take_r;
    l += !take_r;
  }
  out = std::copy(l, le, out);
  return std::copy(r, re, out);
}

std::size_t points_in(std::span<const Pwl* const> terms, std::size_t lo,
                      std::size_t hi) {
  std::size_t n = 0;
  for (std::size_t k = lo; k < hi; ++k) n += terms[k]->size();
  return n;
}

// Pwl::sum's time grid: every breakpoint time of every term in ascending
// order, equal times in term order (only a zero's sign tells them apart),
// dropping any time within kTimeEps of the last kept one. That is the
// sequence a k-way merge of the terms with lowest-index tie-breaks emits;
// it is built by merging the terms' already sorted runs bottom-up, so it
// costs O(P log K) for P breakpoints over K terms. Every value is +0.0,
// ready for the term-major accumulation.
PointStore sum_grid(std::span<const Pwl* const> terms, std::size_t total) {
  PointStore grid;
  grid.reserve(total);
  Point* w = grid.data();
  for (const Pwl* term : terms) {
    for (const Point& p : term->points()) *w++ = {p.t, 0.0};
  }
  grid.set_size(total);
  if (terms.size() > 1) {
    PointStore other;
    other.reserve(total);
    other.set_size(total);
    for (std::size_t width = 1; width < terms.size(); width *= 2) {
      const Point* src = grid.data();
      Point* dst = other.data();
      for (std::size_t k = 0; k < terms.size(); k += 2 * width) {
        const std::size_t mid = std::min(k + width, terms.size());
        const std::size_t end = std::min(k + 2 * width, terms.size());
        const Point* m = src + points_in(terms, k, mid);
        const Point* e = m + points_in(terms, mid, end);
        dst = merge_runs(src, m, m, e, dst);
        src = e;
      }
      std::swap(grid, other);
    }
  }
  Point* g = grid.data();
  std::size_t kept = 1;
  for (std::size_t i = 1; i < total; ++i) {
    if (g[i].t - g[kept - 1].t < kTimeEps) continue;
    g[kept++] = g[i];
  }
  grid.truncate(kept);
  return grid;
}

// Adds a constant `level` to the grid values in [lo, hi). A zero level adds
// nothing, so it is skipped.
void add_level(Point* g, std::size_t lo, std::size_t hi, double level) {
  if (level == 0.0) return;
  for (std::size_t i = lo; i < hi; ++i) g[i].v += level;
}

// Adds segment [lo, hi)'s values to the grid points from index i while
// their times lie before hi.t, and returns the first index at or past it.
// The values are SegCursor::value_at's expression; on a flat segment f * d
// is a zero, and the level adds exactly as lo.v + f * d would, so the
// division is skipped.
std::size_t add_segment(Point* g, std::size_t i, std::size_t n,
                        const Point& lo, const Point& hi) {
  const double d = hi.v - lo.v;
  if (d == 0.0) {
    for (; i < n && g[i].t < hi.t; ++i) g[i].v += lo.v;
    return i;
  }
  const double span = hi.t - lo.t;
  for (; i < n && g[i].t < hi.t; ++i) {
    const double t = g[i].t;
    if (t == lo.t) {
      g[i].v += lo.v + 0.0 * d;
    } else if (span < kTimeEps) {
      g[i].v += hi.v;
    } else {
      g[i].v += lo.v + (t - lo.t) / span * d;
    }
  }
  return i;
}

}  // namespace

Pwl::Pwl(std::vector<Point> points) {
  points_.assign(points.data(), points.size());
  TKA_ASSERT(std::is_sorted(points_.begin(), points_.end(),
                            [](const Point& a, const Point& b) { return a.t < b.t; }));
  merge_duplicate_times(points_);
}

Pwl::Pwl(PointStore points) : points_(std::move(points)) {
  TKA_ASSERT(std::is_sorted(points_.begin(), points_.end(),
                            [](const Point& a, const Point& b) { return a.t < b.t; }));
  merge_duplicate_times(points_);
}

Pwl Pwl::constant(double v) { return Pwl({{0.0, v}}); }

Pwl Pwl::from_sorted_unique(PointStore pts) {
  Pwl w;
  w.points_ = std::move(pts);
  return w;
}

bool Pwl::same_points(const Pwl& other) const {
  if (points_.size() != other.points_.size()) return false;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!(points_[i] == other.points_[i])) return false;
  }
  return true;
}

double Pwl::t_front() const {
  TKA_ASSERT(!points_.empty());
  return points_.front().t;
}

double Pwl::t_back() const {
  TKA_ASSERT(!points_.empty());
  return points_.back().t;
}

double Pwl::value(double t) const {
  if (points_.empty()) return 0.0;
  if (t <= points_.front().t) return points_.front().v;
  if (t >= points_.back().t) return points_.back().v;
  // First breakpoint with time > t.
  auto it = std::upper_bound(points_.begin(), points_.end(), t,
                             [](double x, const Point& p) { return x < p.t; });
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.t - lo.t;
  if (span < kTimeEps) return hi.v;
  const double f = (t - lo.t) / span;
  return lo.v + f * (hi.v - lo.v);
}

double Pwl::peak() const {
  double m = 0.0;
  if (points_.empty()) return 0.0;
  m = points_.front().v;
  for (const Point& p : points_) m = std::max(m, p.v);
  return m;
}

double Pwl::peak_time() const {
  if (points_.empty()) return 0.0;
  double best_v = points_.front().v;
  double best_t = points_.front().t;
  for (const Point& p : points_) {
    if (p.v > best_v) {
      best_v = p.v;
      best_t = p.t;
    }
  }
  return best_t;
}

double Pwl::min_value() const {
  if (points_.empty()) return 0.0;
  double m = points_.front().v;
  for (const Point& p : points_) m = std::min(m, p.v);
  return m;
}

Pwl Pwl::shifted(double dt) const {
  PointStore pts = points_;
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i].t += dt;
  return Pwl(std::move(pts));
}

Pwl Pwl::scaled(double a) const {
  // Times are untouched, so the result inherits this waveform's sorted,
  // deduplicated breakpoint sequence.
  PointStore pts = points_;
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i].v *= a;
  return from_sorted_unique(std::move(pts));
}

Pwl Pwl::plus(const Pwl& other) const {
  if (points_.empty()) return other;
  if (other.points_.empty()) return *this;
  PointStore pts = plus_sweep<false>(points_.span(), other.points_.span());
  merge_points_counter().add(pts.size());
  return from_sorted_unique(std::move(pts));
}

Pwl Pwl::minus(const Pwl& other) const {
  if (points_.empty()) return other.scaled(-1.0);
  if (other.points_.empty()) return *this;
  PointStore pts = plus_sweep<true>(points_.span(), other.points_.span());
  merge_points_counter().add(pts.size());
  return from_sorted_unique(std::move(pts));
}

Pwl Pwl::upper_envelope(const Pwl& other) const {
  if (points_.empty()) return other.upper_envelope(Pwl::constant(0.0));
  if (other.points_.empty()) return upper_envelope(Pwl::constant(0.0));
  PointStore pts;
  pts.reserve((points_.size() + other.points_.size()) * 2);
  MergedTimes times(points_.span(), other.points_.span());
  SegCursor<> ca(points_.span());
  SegCursor<> cb(other.points_.span());
  // Crossing times fall strictly between consecutive merged times, so they
  // form their own non-decreasing sequence and get a dedicated cursor.
  SegCursor<> cross(points_.span());
  bool have_prev = false;
  double tp = 0.0;
  double vap = 0.0;
  double vbp = 0.0;
  double t;
  while (times.next(&t)) {
    const double va = ca.value_at(t);
    const double vb = cb.value_at(t);
    // Insert the crossing point inside (tp, t) if the two linear segments
    // swap order there.
    if (have_prev) {
      const double d0 = vap - vbp;
      const double d1 = va - vb;
      if ((d0 > 0 && d1 < 0) || (d0 < 0 && d1 > 0)) {
        const double f = d0 / (d0 - d1);
        const double tc = tp + f * (t - tp);
        if (tc > tp + kTimeEps && tc < t - kTimeEps) {
          const double vc = cross.value_at(tc);  // == other's value at the crossing
          pts.push_back({tc, vc});
        }
      }
    }
    pts.push_back({t, std::max(va, vb)});
    have_prev = true;
    tp = t;
    vap = va;
    vbp = vb;
  }
  merge_points_counter().add(pts.size());
  // Merged times are >= kTimeEps apart and crossings land strictly more
  // than kTimeEps from both neighbors, so the output needs no dedup pass.
  return from_sorted_unique(std::move(pts));
}

Pwl Pwl::clamped(double lo, double hi) const {
  TKA_ASSERT(lo <= hi);
  if (points_.empty()) {
    const double z = std::clamp(0.0, lo, hi);
    return z == 0.0 ? Pwl() : Pwl::constant(z);
  }
  // Clamping a PWL can introduce breakpoints where segments cross lo/hi.
  PointStore pts;
  pts.reserve(points_.size() * 2);
  for (size_t i = 0; i < points_.size(); ++i) {
    const Point& p = points_[i];
    pts.push_back({p.t, std::clamp(p.v, lo, hi)});
    if (i + 1 == points_.size()) break;
    const Point& q = points_[i + 1];
    // A linear segment crosses each threshold at most once, so the segment
    // contributes at most two interior breakpoints; collect them and emit
    // in time order (the lo crossing need not come first).
    Point crossings[2];
    int n_cross = 0;
    for (double level : {lo, hi}) {
      const double d0 = p.v - level;
      const double d1 = q.v - level;
      if ((d0 > 0 && d1 < 0) || (d0 < 0 && d1 > 0)) {
        const double f = d0 / (d0 - d1);
        const double tc = p.t + f * (q.t - p.t);
        if (tc > p.t + kTimeEps && tc < q.t - kTimeEps) {
          crossings[n_cross++] = {tc, level};
        }
      }
    }
    if (n_cross == 2 && crossings[1].t < crossings[0].t) {
      std::swap(crossings[0], crossings[1]);
    }
    for (int c = 0; c < n_cross; ++c) pts.push_back(crossings[c]);
  }
  return Pwl(std::move(pts));
}

bool Pwl::encapsulates(const Pwl& other, double t_lo, double t_hi, double tol) const {
  TKA_ASSERT(t_lo <= t_hi);
  // Interval ends first: the common fast reject, at one binary search each.
  if (!(value(t_lo) >= other.value(t_lo) - tol)) return false;
  if (!(value(t_hi) >= other.value(t_hi) - tol)) return false;
  // Both waveforms are linear between merged breakpoints, so checking every
  // breakpoint of either inside (t_lo, t_hi) is exact. Linear co-walk: the
  // breakpoints come out in ascending order, so each side's value comes
  // from an advancing cursor.
  SegCursor<> ca(points_.span());
  SegCursor<> cb(other.points_.span());
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < points_.size() || ib < other.points_.size()) {
    double t;
    if (ib >= other.points_.size() ||
        (ia < points_.size() && points_[ia].t <= other.points_[ib].t)) {
      t = points_[ia++].t;
    } else {
      t = other.points_[ib++].t;
    }
    if (t <= t_lo) continue;
    if (t >= t_hi) break;  // ascending: nothing later can be inside
    if (!(ca.value_at(t) >= cb.value_at(t) - tol)) return false;
  }
  return true;
}

std::optional<double> Pwl::last_time_at_or_below(double level) const {
  // Empty waveform contract: identically zero. When level >= 0 the set
  // {t : w(t) <= level} is unbounded above; when level < 0 it is empty.
  // Either way there is no finite "latest" time to report.
  if (points_.empty()) return std::nullopt;
  // Constant extrapolation after the last breakpoint: if the final value is
  // <= level the set {t : w(t) <= level} is unbounded above.
  if (points_.back().v <= level) return std::nullopt;
  // Scan segments backward for the latest point at or below the level.
  for (size_t i = points_.size() - 1; i > 0; --i) {
    const Point& a = points_[i - 1];
    const Point& b = points_[i];
    const double vmin = std::min(a.v, b.v);
    if (vmin > level) continue;
    if (b.v <= level) return b.t;  // (only possible for i == size-1 handled above)
    // b.v > level, a.v <= level possible; or dip inside segment (linear: no
    // interior dip). Linear segment: the latest t with v(t) <= level solves
    // v(t) = level on a rising stretch ending above level.
    const double denom = b.v - a.v;
    TKA_ASSERT(std::abs(denom) > 0.0);
    const double f = (level - a.v) / denom;
    return a.t + f * (b.t - a.t);
  }
  // Before the first breakpoint: constant at front value.
  if (points_.front().v <= level) return points_.front().t;
  return std::nullopt;
}

std::optional<double> Pwl::first_time_at_or_above(double level) const {
  if (points_.empty()) return std::nullopt;
  if (points_.front().v >= level) return std::nullopt;  // unbounded below
  for (size_t i = 1; i < points_.size(); ++i) {
    const Point& a = points_[i - 1];
    const Point& b = points_[i];
    if (std::max(a.v, b.v) < level) continue;
    if (a.v >= level) return a.t;
    const double denom = b.v - a.v;
    TKA_ASSERT(std::abs(denom) > 0.0);
    const double f = (level - a.v) / denom;
    return a.t + f * (b.t - a.t);
  }
  return std::nullopt;
}

double Pwl::integral() const {
  double area = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    const Point& a = points_[i - 1];
    const Point& b = points_[i];
    area += 0.5 * (a.v + b.v) * (b.t - a.t);
  }
  return area;
}

Pwl Pwl::simplified(double tol) const {
  if (points_.size() <= 2) return *this;
  PointStore out;
  out.reserve(points_.size());
  out.push_back(points_.front());
  // Greedy: extend the current segment while every skipped breakpoint stays
  // within tol of the straight line from the anchor to the candidate end.
  size_t anchor = 0;
  size_t i = 1;
  while (i + 1 < points_.size()) {
    // Try to skip breakpoint i: line from anchor to i+1.
    const Point& a = points_[anchor];
    const Point& c = points_[i + 1];
    bool ok = true;
    for (size_t j = anchor + 1; j <= i; ++j) {
      const Point& p = points_[j];
      const double span = c.t - a.t;
      const double lv = span < kTimeEps
                            ? a.v
                            : a.v + (p.t - a.t) / span * (c.v - a.v);
      if (std::abs(lv - p.v) > tol) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ++i;  // breakpoint i is redundant; consider extending further
    } else {
      out.push_back(points_[i]);
      anchor = i;
      ++i;
    }
  }
  out.push_back(points_.back());
  // A subsequence of an already-deduplicated breakpoint list.
  return from_sorted_unique(std::move(out));
}

std::string Pwl::to_string() const {
  std::ostringstream os;
  os << "Pwl[";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i) os << ", ";
    os << "(" << points_[i].t << ", " << points_[i].v << ")";
  }
  os << "]";
  return os.str();
}

Pwl Pwl::sum(std::span<const Pwl* const> terms) {
  std::size_t total = 0;
  for (const Pwl* w : terms) {
    TKA_ASSERT(w != nullptr);
    total += w->size();
  }
  if (total == 0) return Pwl();
  PointStore pts = sum_grid(terms, total);
  // Term-major values: each term in turn adds its value at every grid point
  // where that value can be nonzero, so every output is still its terms'
  // values added in term order, starting from +0.0. Such a sum never
  // becomes -0.0, so a skipped ±0 addend leaves every bit unchanged.
  Point* g = pts.data();
  const std::size_t n = pts.size();
  for (const Pwl* w : terms) {
    const std::span<const Point> p = w->points();
    if (p.empty()) continue;
    // Grid points at or before the front hold the front value; past it the
    // segments take over, then the back value from the back onwards.
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(g, g + n, p.front().t,
                         [](double x, const Point& q) { return x < q.t; }) -
        g);
    add_level(g, 0, i, p.front().v);
    for (std::size_t s = 1; s < p.size(); ++s) {
      i = add_segment(g, i, n, p[s - 1], p[s]);
    }
    add_level(g, i, n, p.back().v);
  }
  merge_points_counter().add(n);
  // Grid times are eps-deduplicated by sum_grid.
  return from_sorted_unique(std::move(pts));
}

}  // namespace tka::wave
