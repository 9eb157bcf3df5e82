// Snapshot-chain lifecycle tests: the chunked COW vector underneath
// Netlist/Parasitics storage, DesignSnapshot's bit-identity and sharing
// contracts, the concurrent publish/pin protocol the serving layer relies
// on (run under TSan in CI), and the mem.snapshot_bytes zero-balance
// teardown invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "layout/parasitics.hpp"
#include "net/netlist.hpp"
#include "obs/memory.hpp"
#include "session/analysis_session.hpp"
#include "session/design_snapshot.hpp"
#include "sta/delay_model.hpp"
#include "topk/topk_engine.hpp"
#include "util/cow_vec.hpp"

namespace tka {
namespace {

using session::DesignSnapshot;
using session::WhatIfEdit;
using test::Fixture;

// ---------------------------------------------------------------- CowVec

// Small chunks (2^2 = 4 elements) so a handful of pushes spans several.
using SmallVec = util::CowVec<int, 2>;

TEST(CowVec, PushBackIndexIterate) {
  SmallVec v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 11; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 11u);
  EXPECT_EQ(v.num_chunks(), 3u);  // 4 + 4 + 3
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], static_cast<int>(i) * 10);
  }
  int expect = 0;
  for (int x : v) {
    EXPECT_EQ(x, expect);
    expect += 10;
  }
}

TEST(CowVec, FillConstructorAndMut) {
  SmallVec v(6, 7);
  EXPECT_EQ(v.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(v[i], 7);
  v.mut(5) = 42;
  EXPECT_EQ(v[5], 42);
  EXPECT_EQ(v[4], 7);
}

TEST(CowVec, CopySharesEveryChunk) {
  SmallVec a(10, 1);
  SmallVec b = a;
  ASSERT_EQ(b.num_chunks(), a.num_chunks());
  for (std::size_t c = 0; c < a.num_chunks(); ++c) {
    EXPECT_TRUE(a.chunk_shared(c));
    EXPECT_TRUE(b.chunk_shared(c));
  }
  // Reads never detach.
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 1);
  EXPECT_TRUE(a.chunk_shared(0));
}

TEST(CowVec, MutDetachesOnlyTheTouchedChunk) {
  SmallVec a(12, 5);  // chunks 0..2
  SmallVec b = a;
  b.mut(6) = 99;  // chunk 1
  EXPECT_EQ(b[6], 99);
  EXPECT_EQ(a[6], 5);  // original untouched
  EXPECT_FALSE(b.chunk_shared(1));
  EXPECT_FALSE(a.chunk_shared(1));
  EXPECT_TRUE(a.chunk_shared(0));
  EXPECT_TRUE(a.chunk_shared(2));
}

TEST(CowVec, PushBackOnCopyDetachesTail) {
  SmallVec a;
  for (int i = 0; i < 6; ++i) a.push_back(i);
  SmallVec b = a;
  b.push_back(100);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b[6], 100);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(a[i], static_cast<int>(i));
  EXPECT_TRUE(a.chunk_shared(0));      // full chunk still shared
  EXPECT_FALSE(a.chunk_shared(1));     // tail chunk detached by b's append
}

TEST(CowVec, VisitChunksKeysIdentifySharing) {
  SmallVec a(8, 3);
  SmallVec b = a;
  b.mut(0) = 4;  // detach chunk 0 in b
  std::vector<const void*> ka, kb;
  a.visit_chunks([&](const void* key, const std::vector<int>&) {
    ka.push_back(key);
  });
  b.visit_chunks([&](const void* key, const std::vector<int>&) {
    kb.push_back(key);
  });
  ASSERT_EQ(ka.size(), 2u);
  ASSERT_EQ(kb.size(), 2u);
  EXPECT_NE(ka[0], kb[0]);  // detached
  EXPECT_EQ(ka[1], kb[1]);  // still shared
}

// --------------------------------------------------------- DesignSnapshot

// The victim chain plus aggressors with distinct coupling strengths, same
// shape the session tests use.
Fixture snapshot_fixture() {
  Fixture fx = test::make_parallel_chains(4, 4);
  test::couple(fx, "c0_n1", "c1_n1", 0.012);
  test::couple(fx, "c0_n2", "c2_n2", 0.006);
  test::couple(fx, "c0_n3", "c3_n3", 0.003);
  test::couple(fx, "c2_n1", "c3_n1", 0.004);
  return fx;
}

topk::TopkOptions options(const Fixture& fx, int k) {
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = topk::Mode::kElimination;
  opt.threads = 1;
  opt.iterative.sta = fx.sta_options();
  return opt;
}

void expect_identical(const topk::TopkResult& a, const topk::TopkResult& b) {
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.baseline_delay, b.baseline_delay);
  EXPECT_EQ(a.reference_delay, b.reference_delay);
  EXPECT_EQ(a.estimated_delay, b.estimated_delay);
  EXPECT_EQ(a.evaluated_delay, b.evaluated_delay);
  EXPECT_EQ(a.set_by_k, b.set_by_k);
}

void expect_same_design(const net::Netlist& nl_a,
                        const layout::Parasitics& pa,
                        const net::Netlist& nl_b,
                        const layout::Parasitics& pb) {
  ASSERT_EQ(nl_a.num_gates(), nl_b.num_gates());
  for (net::GateId g = 0; g < nl_a.num_gates(); ++g) {
    EXPECT_EQ(nl_a.gate(g).cell_index, nl_b.gate(g).cell_index) << "gate " << g;
  }
  ASSERT_EQ(pa.num_nets(), pb.num_nets());
  for (net::NetId n = 0; n < pa.num_nets(); ++n) {
    EXPECT_EQ(pa.ground_cap(n), pb.ground_cap(n)) << "net " << n;
    EXPECT_EQ(pa.wire_res(n), pb.wire_res(n)) << "net " << n;
  }
  ASSERT_EQ(pa.num_couplings(), pb.num_couplings());
  for (layout::CapId c = 0; c < pa.num_couplings(); ++c) {
    EXPECT_EQ(pa.coupling(c).cap_pf, pb.coupling(c).cap_pf) << "cap " << c;
  }
}

TEST(DesignSnapshot, ApplyMatchesDeepCopyBitForBit) {
  Fixture fx = snapshot_fixture();
  const std::size_t buf2 =
      net::CellLibrary::default_library().index_of("BUFX2");

  WhatIfEdit edit;
  edit.shield_couplings = {0};
  edit.zero_couplings = {3};
  edit.resizes = {
      {fx.netlist->net(fx.netlist->net_by_name("c0_n1")).driver, buf2}};

  // Deep-copy reference: apply the same edit to full copies.
  net::Netlist deep_nl(*fx.netlist);
  layout::Parasitics deep_par(fx.parasitics);
  session::apply_edit_to_design(deep_nl, deep_par, edit);

  auto base = DesignSnapshot::make_base(net::Netlist(*fx.netlist),
                                        layout::Parasitics(fx.parasitics),
                                        sta::DelayModelOptions{});
  auto child = base->apply(edit);

  EXPECT_EQ(base->epoch(), 0u);
  EXPECT_EQ(child->epoch(), 1u);
  expect_same_design(child->netlist(), child->parasitics(), deep_nl, deep_par);
  // The base is immutable: the edit must not leak backwards.
  expect_same_design(base->netlist(), base->parasitics(), *fx.netlist,
                     fx.parasitics);
  // COW: the successor introduces far less storage than the base design.
  EXPECT_GT(base->unique_bytes(), 0u);
  EXPECT_LT(child->unique_bytes(), base->unique_bytes());
}

TEST(DesignSnapshot, SessionOnSnapshotMatchesColdRun) {
  Fixture fx = snapshot_fixture();
  WhatIfEdit edit;
  edit.shield_couplings = {1};

  auto base = DesignSnapshot::make_base(net::Netlist(*fx.netlist),
                                        layout::Parasitics(fx.parasitics),
                                        sta::DelayModelOptions{});
  auto child = base->apply(edit);

  session::AnalysisSession on_child(
      net::Netlist(child->netlist()), layout::Parasitics(child->parasitics()),
      child->model_options(),
      session::SessionOptions{.retain_candidates = true});
  const topk::TopkResult got = on_child.run(options(fx, 2));

  // Cold reference on deep copies of the edited design.
  Fixture ref = snapshot_fixture();
  ref.parasitics.shield_coupling(1);
  session::AnalysisSession cold(std::move(*ref.netlist),
                                layout::Parasitics(ref.parasitics),
                                sta::DelayModelOptions{});
  const topk::TopkResult want = cold.run(options(fx, 2));
  expect_identical(got, want);
}

// A session's COW copies hold the storage chunks they share with the
// snapshot they came from, so the session needs no pin: it keeps answering
// what_if after the whole chain is freed.
TEST(DesignSnapshot, SessionOutlivesItsSnapshotChain) {
  Fixture fx = snapshot_fixture();
  WhatIfEdit first;
  first.shield_couplings = {1};
  WhatIfEdit second;
  second.zero_couplings = {0};

  const std::size_t live_before = DesignSnapshot::stats().live;
  std::unique_ptr<session::AnalysisSession> s;
  {
    auto base = DesignSnapshot::make_base(net::Netlist(*fx.netlist),
                                          layout::Parasitics(fx.parasitics),
                                          sta::DelayModelOptions{});
    auto child = base->apply(first);
    s = std::make_unique<session::AnalysisSession>(
        net::Netlist(child->netlist()), layout::Parasitics(child->parasitics()),
        child->model_options(),
        session::SessionOptions{.retain_candidates = true});
    s->run(options(fx, 2));
  }
  EXPECT_EQ(DesignSnapshot::stats().live, live_before);
  const topk::TopkResult got = s->what_if(second);

  // One-shot reference on deep copies that carry both edits.
  Fixture ref = snapshot_fixture();
  session::apply_edit_to_design(*ref.netlist, ref.parasitics, first);
  session::apply_edit_to_design(*ref.netlist, ref.parasitics, second);
  session::AnalysisSession one_shot(std::move(*ref.netlist),
                                    std::move(ref.parasitics),
                                    sta::DelayModelOptions{});
  expect_identical(got, one_shot.run(options(fx, 2)));
}

TEST(DesignSnapshot, StatsCountSharingAcrossChain) {
  const DesignSnapshot::Stats before = DesignSnapshot::stats();

  Fixture fx = snapshot_fixture();
  auto base = DesignSnapshot::make_base(net::Netlist(*fx.netlist),
                                        layout::Parasitics(fx.parasitics),
                                        sta::DelayModelOptions{});
  std::vector<std::shared_ptr<const DesignSnapshot>> chain{base};
  for (int e = 0; e < 4; ++e) {
    WhatIfEdit edit;
    edit.shield_couplings = {static_cast<layout::CapId>(e)};
    chain.push_back(chain.back()->apply(edit));
  }

  const DesignSnapshot::Stats during = DesignSnapshot::stats();
  EXPECT_EQ(during.live, before.live + 5);
  // Five snapshots whose logical footprint overlaps heavily: the chain
  // must resolve to far fewer resident bytes than the logical sum.
  EXPECT_GT(during.logical_bytes, during.resident_bytes);
  EXPECT_GT(during.shared_bytes(), 0u);

  chain.clear();
  base.reset();
  const DesignSnapshot::Stats after = DesignSnapshot::stats();
  EXPECT_EQ(after.live, before.live);
}

TEST(DesignSnapshot, TrackedBytesBalanceReturnsToZeroOnTeardown) {
  const std::int64_t before = obs::TrackedBytes::total("mem.snapshot_bytes");
  {
    Fixture fx = snapshot_fixture();
    auto head = DesignSnapshot::make_base(net::Netlist(*fx.netlist),
                                          layout::Parasitics(fx.parasitics),
                                          sta::DelayModelOptions{});
#if TKA_OBS_ENABLED
    EXPECT_GT(obs::TrackedBytes::total("mem.snapshot_bytes"), before);
#endif
    for (int e = 0; e < 8; ++e) {
      WhatIfEdit edit;
      edit.shield_couplings = {static_cast<layout::CapId>(e % 4)};
      head = head->apply(edit);
      // Dropping the previous head as we go: intermediate snapshots die
      // once unpinned, and their tracked bytes must die with them.
    }
  }
  EXPECT_EQ(obs::TrackedBytes::total("mem.snapshot_bytes"), before);
}

// The serving protocol under concurrency: readers pin whatever head they
// observe while a writer publishes successors. Each pinned snapshot must
// read back exactly the design state of its epoch, no matter how far the
// chain has advanced past it. TSan (CI) checks the pin/publish handoff;
// the value checks catch any mutation leaking across snapshots.
TEST(DesignSnapshot, ConcurrentPinAndPublishFuzz) {
  constexpr int kEpochs = 8;
  constexpr int kReaders = 4;

  Fixture fx = snapshot_fixture();
  const std::size_t num_caps = fx.parasitics.num_couplings();

  // Expected coupling-cap state per epoch, from serial deep replay.
  std::vector<WhatIfEdit> edits;
  std::vector<std::vector<double>> caps_at_epoch;
  {
    net::Netlist nl(*fx.netlist);
    layout::Parasitics par(fx.parasitics);
    auto record = [&] {
      std::vector<double> caps;
      for (layout::CapId c = 0; c < num_caps; ++c) {
        caps.push_back(par.coupling(c).cap_pf);
      }
      caps_at_epoch.push_back(std::move(caps));
    };
    record();
    for (int e = 0; e < kEpochs; ++e) {
      WhatIfEdit edit;
      edit.shield_couplings = {static_cast<layout::CapId>(e % num_caps)};
      edits.push_back(edit);
      session::apply_edit_to_design(nl, par, edit);
      record();
    }
  }

  std::mutex head_mu;
  std::shared_ptr<const DesignSnapshot> head = DesignSnapshot::make_base(
      net::Netlist(*fx.netlist), layout::Parasitics(fx.parasitics),
      sta::DelayModelOptions{});
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const DesignSnapshot> pin;
        {
          std::lock_guard<std::mutex> lock(head_mu);
          pin = head;
        }
        const std::uint64_t e = pin->epoch();
        if (e < last) ++bad;  // the head never moves backwards
        last = e;
        const std::vector<double>& want =
            caps_at_epoch[static_cast<std::size_t>(e)];
        for (layout::CapId c = 0; c < num_caps; ++c) {
          if (pin->parasitics().coupling(c).cap_pf != want[c]) {
            ++bad;
            break;
          }
        }
      }
    });
  }

  for (const WhatIfEdit& edit : edits) {
    std::shared_ptr<const DesignSnapshot> next;
    {
      std::lock_guard<std::mutex> lock(head_mu);
      next = head->apply(edit);
      head = next;
    }
    // Give readers a chance to pin intermediate epochs.
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(head->epoch(), static_cast<std::uint64_t>(kEpochs));
  const std::vector<double>& final_caps = caps_at_epoch.back();
  for (layout::CapId c = 0; c < num_caps; ++c) {
    EXPECT_EQ(head->parasitics().coupling(c).cap_pf, final_caps[c]);
  }
}

}  // namespace
}  // namespace tka
