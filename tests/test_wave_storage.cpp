// PointStore storage tests: inline <-> heap spill round trips stay
// bit-identical to a plain std::vector reference, moves steal the block,
// and the exact-size paths (assign, shrink_to_fit) hold no growth slack,
// the footprint the envelope table and I-list insertion rely on when they
// park waveforms through Pwl::compact().
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "wave/point_store.hpp"
#include "wave/pwl.hpp"

namespace tka::wave {
namespace {

TEST(PointStore, InlineThenSpillRoundTrip) {
  PointStore s;
  EXPECT_FALSE(s.spilled());
  EXPECT_EQ(s.heap_bytes(), 0u);
  // Fill to the inline capacity: no spill yet.
  for (std::size_t i = 0; i < PointStore::kInlineCapacity; ++i) {
    s.push_back({static_cast<double>(i), -static_cast<double>(i)});
  }
  EXPECT_FALSE(s.spilled());
  EXPECT_EQ(s.size(), PointStore::kInlineCapacity);
  // One more point forces the spill; contents must carry over exactly.
  s.push_back({100.0, -100.0});
  EXPECT_TRUE(s.spilled());
  EXPECT_GT(s.heap_bytes(), 0u);
  ASSERT_EQ(s.size(), PointStore::kInlineCapacity + 1);
  for (std::size_t i = 0; i < PointStore::kInlineCapacity; ++i) {
    EXPECT_EQ(s[i].t, static_cast<double>(i));
    EXPECT_EQ(s[i].v, -static_cast<double>(i));
  }
  EXPECT_EQ(s[PointStore::kInlineCapacity].t, 100.0);
}

// Fuzz PointStore against std::vector<Point> through the operations the
// kernels use (push_back, reserve, truncate, copy, move, assign). Every
// intermediate state must match the reference bit for bit, across both
// sides of the spill threshold.
TEST(PointStore, FuzzAgainstVectorReference) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (int round = 0; round < 200; ++round) {
    PointStore s;
    std::vector<Point> ref;
    const int ops = 1 + static_cast<int>(rng() % 60);
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 6) {
        case 0:
        case 1:
        case 2: {  // push_back (biased: growth crosses the spill boundary)
          const Point p{val(rng), val(rng)};
          s.push_back(p);
          ref.push_back(p);
          break;
        }
        case 3: {  // reserve must not disturb contents
          s.reserve(rng() % 128);
          break;
        }
        case 4: {  // truncate
          const std::size_t n = ref.empty() ? 0 : rng() % ref.size();
          s.truncate(n);
          ref.resize(n);
          break;
        }
        case 5: {  // copy + move round-trip through fresh stores
          PointStore copy = s;
          PointStore moved = std::move(copy);
          s = std::move(moved);
          break;
        }
      }
      ASSERT_EQ(s.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(s[i].t, ref[i].t);
        ASSERT_EQ(s[i].v, ref[i].v);
      }
    }
  }
}

TEST(PointStore, MoveStealsSpilledBlockWithoutCopy) {
  PointStore a;
  for (int i = 0; i < 100; ++i) a.push_back({i * 1.0, i * 2.0});
  ASSERT_TRUE(a.spilled());
  const Point* block = a.data();
  PointStore b = std::move(a);
  EXPECT_EQ(b.data(), block);  // pointer steal, not a copy
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.spilled());
}

bool same_bits(const PointStore& s, const std::vector<Point>& ref) {
  return s.size() == ref.size() &&
         (ref.empty() ||
          std::memcmp(s.data(), ref.data(), ref.size() * sizeof(Point)) == 0);
}

// Growth rounds capacity up to a power of two; the two paths that size a
// block for a kept waveform do not. shrink_to_fit() (behind Pwl::compact(),
// which the envelope table and I-list insertion call before parking a
// waveform) and assign() (copies) allocate exactly the points held.
TEST(PointStore, ShrinkToFitAndAssignAreExact) {
  std::vector<Point> ref;
  for (int i = 0; i < 37; ++i) ref.push_back({0.25 * i, -0.5 * i + 0.1});
  ref[3].v = -0.0;  // sign bits must survive the copies too

  PointStore s;
  for (const Point& p : ref) s.push_back(p);
  ASSERT_TRUE(s.spilled());
  ASSERT_EQ(s.capacity(), 64u);  // 4, 8, 16, 32, 64
  s.shrink_to_fit();
  EXPECT_TRUE(s.spilled());
  EXPECT_EQ(s.capacity(), ref.size());
  EXPECT_EQ(s.heap_bytes(), s.size() * sizeof(Point));
  EXPECT_TRUE(same_bits(s, ref));

  // Cut to at most one point, a store goes back inline and owns no heap.
  for (const std::size_t keep : {std::size_t{1}, std::size_t{0}}) {
    PointStore cut = s;
    cut.truncate(keep);
    cut.shrink_to_fit();
    EXPECT_FALSE(cut.spilled());
    EXPECT_EQ(cut.heap_bytes(), 0u);
    EXPECT_TRUE(same_bits(cut, {ref.begin(), ref.begin() + keep}));
  }

  // assign() into a smaller store, inline or spilled, allocates exactly n;
  // so does a copy of a store that carries growth slack.
  PointStore from_inline;
  from_inline.push_back(ref[0]);
  PointStore from_spilled;
  for (int i = 0; i < 5; ++i) from_spilled.push_back(ref[i]);
  ASSERT_EQ(from_spilled.capacity(), 8u);
  for (PointStore* t : {&from_inline, &from_spilled}) {
    t->assign(ref.data(), 23);
    EXPECT_EQ(t->capacity(), 23u);
    EXPECT_EQ(t->heap_bytes(), 23 * sizeof(Point));
    EXPECT_TRUE(same_bits(*t, {ref.begin(), ref.begin() + 23}));
  }
  PointStore grown;
  for (const Point& p : ref) grown.push_back(p);
  const PointStore copy = grown;
  EXPECT_EQ(copy.heap_bytes(), ref.size() * sizeof(Point));
  EXPECT_TRUE(same_bits(copy, ref));
}

// Round-trip a Pwl through spill-inducing kernels and compare with the same
// computation done at inline-resident sizes: storage location must never
// change values.
TEST(PwlStorage, SpilledAndInlineComputeIdenticalValues) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> val(0.0, 1.0);
  for (int round = 0; round < 50; ++round) {
    std::vector<Point> pts;
    double t = 0.0;
    const int n = 3 + static_cast<int>(rng() % 40);  // spans the threshold
    for (int i = 0; i < n; ++i) {
      t += 0.01 + val(rng);
      pts.push_back({t, val(rng)});
    }
    const Pwl a(pts);
    const Pwl b = a.shifted(0.37).scaled(0.5);
    const Pwl sum = a.plus(b);
    const Pwl diff = a.minus(b);
    // plus/minus must agree with pointwise evaluation at every breakpoint.
    for (const Point& p : sum.points()) {
      ASSERT_EQ(p.v, a.value(p.t) + b.value(p.t));
    }
    ASSERT_TRUE(sum.minus(b).plus(b).same_points(sum));
    ASSERT_EQ(diff.size(), sum.size());
  }
}

}  // namespace
}  // namespace tka::wave
