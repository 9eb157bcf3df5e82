// PointStore / pool storage tests: SBO <-> pool spill round-trips stay
// bit-identical to a plain heap vector, and the pool's byte accounting
// balances back to zero once every waveform is destroyed and the free
// lists are trimmed (the invariant the session relies on when it trims
// per query and publishes mem.wave_pool_* gauges).
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
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

// After every store is destroyed and the calling thread's free list is
// trimmed, the pool's balance returns to where it started: live bytes to
// the pre-test level and this thread's cache to zero. The session performs
// exactly this reset per query.
TEST(PoolAccounting, ZeroBalanceAfterTrim) {
  pool::trim_all(0);
  const pool::Stats before = pool::stats();
  {
    std::vector<Pwl> keep;
    std::mt19937_64 rng(13);
    std::uniform_real_distribution<double> val(0.0, 1.0);
    for (int i = 0; i < 64; ++i) {
      std::vector<Point> pts;
      double t = 0.0;
      for (int j = 0; j < 40; ++j) {
        t += 0.02 + val(rng);
        pts.push_back({t, val(rng)});
      }
      keep.emplace_back(pts);
    }
    const pool::Stats during = pool::stats();
    EXPECT_GT(during.live_bytes, before.live_bytes);
    EXPECT_GT(during.alloc_calls, before.alloc_calls);
  }
  pool::trim_all(0);
  const pool::Stats after = pool::stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(pool::thread_cached_bytes(), 0u);

  // The published gauges must mirror the balanced accounting.
  pool::publish_gauges();
  const double pool_gauge =
      obs::registry().gauge("mem.wave_pool_bytes").value();
  const double cached_gauge =
      obs::registry().gauge("mem.wave_pool_cached_bytes").value();
  EXPECT_EQ(cached_gauge, 0.0);
  EXPECT_EQ(pool_gauge, static_cast<double>(after.live_bytes));
}

// Released blocks park on the free list (cached bytes) and are reused by
// the next allocation of the same size class instead of hitting the heap.
TEST(PoolAccounting, FreeListReuseIsAHit) {
  pool::trim_all(0);
  const std::size_t cap = pool::round_capacity(100);
  Point* p = pool::alloc(cap);
  pool::release(p, cap);
  EXPECT_GT(pool::thread_cached_bytes(), 0u);
  const pool::Stats before = pool::stats();
  Point* q = pool::alloc(cap);
  const pool::Stats after = pool::stats();
  EXPECT_EQ(q, p);  // same block back
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  pool::release(q, cap);
  pool::trim_all(0);
}

}  // namespace
}  // namespace tka::wave
