// Edge-case and option-surface tests for the top-k engine: degenerate
// inputs, option extremes, and consistency across configuration knobs.
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "obs/obs.hpp"
#include "session/analysis_session.hpp"
#include "topk/topk_engine.hpp"

namespace tka::topk {
namespace {

using test::Fixture;

struct Harness {
  Fixture fx;

  explicit Harness(Fixture f) : fx(std::move(f)) {}

  TopkResult run(const TopkOptions& opt) const {
    session::AnalysisSession s(*fx.netlist, fx.parasitics, {});
    return s.run(opt);
  }

  TopkOptions options(int k, Mode mode) const {
    TopkOptions opt;
    opt.k = k;
    opt.mode = mode;
    opt.iterative.sta = fx.sta_options();
    return opt;
  }
};

Fixture basic_fixture() {
  Fixture fx = test::make_parallel_chains(3, 2);
  test::couple(fx, "c0_n1", "c1_n1", 0.010);
  test::couple(fx, "c0_n0", "c2_n0", 0.006);
  return fx;
}

TEST(EngineEdge, NoCouplingsAtAll) {
  Harness h(test::make_parallel_chains(2, 2));
  const TopkResult res = h.run(h.options(3, Mode::kAddition));
  EXPECT_TRUE(res.members.empty());
  EXPECT_DOUBLE_EQ(res.baseline_delay, res.reference_delay);
  EXPECT_DOUBLE_EQ(res.estimated_delay, res.baseline_delay);
}

TEST(EngineEdge, KLargerThanCouplingCount) {
  Harness h(basic_fixture());
  const TopkResult res = h.run(h.options(10, Mode::kAddition));
  // At most the two existing couplings can be chosen; the trail carries the
  // best available set through the remaining cardinalities.
  EXPECT_LE(res.members.size(), 2u);
  EXPECT_EQ(res.set_by_k.size(), 10u);
  EXPECT_NEAR(res.evaluated_delay, res.reference_delay, 5e-3);
}

TEST(EngineEdge, AllCouplingsZeroed) {
  Fixture fx = basic_fixture();
  fx.parasitics.zero_coupling(0);
  fx.parasitics.zero_coupling(1);
  Harness h(std::move(fx));
  const TopkResult res = h.run(h.options(2, Mode::kElimination));
  EXPECT_TRUE(res.members.empty());
  EXPECT_DOUBLE_EQ(res.baseline_delay, res.reference_delay);
}

TEST(EngineEdge, TightSlackThresholdStillSound) {
  Harness h(basic_fixture());
  TopkOptions opt = h.options(2, Mode::kAddition);
  opt.victim_slack_threshold = 0.0;  // only exactly-critical victims
  const TopkResult res = h.run(opt);
  // Whatever is found must still be a valid bracketed result.
  EXPECT_GE(res.evaluated_delay, res.baseline_delay - 1e-9);
  EXPECT_LE(res.evaluated_delay, res.reference_delay + 1e-9);
}

TEST(EngineEdge, MaxPrimaryPerVictimOne) {
  Fixture fx = test::make_parallel_chains(4, 2);
  test::couple(fx, "c0_n1", "c1_n1", 0.012);
  test::couple(fx, "c0_n1", "c2_n1", 0.006);
  test::couple(fx, "c0_n1", "c3_n1", 0.003);
  Harness h(std::move(fx));
  TopkOptions opt = h.options(1, Mode::kAddition);
  opt.max_primary_per_victim = 1;
  const TopkResult res = h.run(opt);
  // Only the largest coupling per victim is enumerable.
  ASSERT_EQ(res.members.size(), 1u);
  EXPECT_EQ(res.members[0], 0u);
}

TEST(EngineEdge, ReevaluateOffUsesEstimate) {
  Harness h(basic_fixture());
  TopkOptions opt = h.options(2, Mode::kAddition);
  opt.reevaluate = false;
  const TopkResult res = h.run(opt);
  EXPECT_DOUBLE_EQ(res.evaluated_delay, res.estimated_delay);
}

TEST(EngineEdge, RerankZeroKeepsEstimatorChoice) {
  Harness h(basic_fixture());
  TopkOptions with = h.options(2, Mode::kElimination);
  TopkOptions without = h.options(2, Mode::kElimination);
  without.rerank_top = 0;
  const TopkResult r1 = h.run(with);
  const TopkResult r2 = h.run(without);
  // Re-ranking may only improve (reduce) the elimination delay.
  EXPECT_LE(r1.evaluated_delay, r2.evaluated_delay + 1e-12);
}

TEST(EngineEdge, FilterToggleConsistency) {
  Harness h(basic_fixture());
  TopkOptions on = h.options(2, Mode::kAddition);
  TopkOptions off = h.options(2, Mode::kAddition);
  off.use_filter = false;
  const TopkResult r1 = h.run(on);
  const TopkResult r2 = h.run(off);
  // The filter is conservative, so both must find the same set here.
  EXPECT_EQ(r1.members, r2.members);
}

TEST(EngineEdge, StatsArePopulated) {
  Harness h(basic_fixture());
  const TopkResult res = h.run(h.options(2, Mode::kAddition));
  // sets_generated is the run's delta of the obs registry counter.
  EXPECT_GT(res.stats.sets_generated, 0u);
  EXPECT_GT(res.stats.max_list_size, 0u);
  EXPECT_GT(res.stats.runtime_s, 0.0);
  ASSERT_EQ(res.stats.runtime_by_k.size(), 2u);
  EXPECT_LE(res.stats.runtime_by_k[0], res.stats.runtime_by_k[1]);
}

TEST(EngineEdge, SmallestPossibleCircuit) {
  // One gate, one coupling between its input and output nets.
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  Fixture fx;
  fx.netlist = std::make_unique<net::Netlist>(lib, "tiny");
  const net::NetId in = fx.netlist->add_primary_input("in");
  const net::NetId out =
      fx.netlist->add_gate(lib.index_of("BUFX1"), {in}, "g", "out");
  fx.netlist->mark_primary_output(out);
  fx.parasitics = layout::Parasitics(fx.netlist->num_nets());
  fx.parasitics.add_ground_cap(in, 0.01);
  fx.parasitics.add_ground_cap(out, 0.01);
  fx.parasitics.add_coupling(in, out, 0.005);
  fx.arrivals.assign(fx.netlist->num_nets(), sta::InputArrival{});
  Harness h(std::move(fx));
  const TopkResult res = h.run(h.options(1, Mode::kAddition));
  EXPECT_EQ(res.members.size(), 1u);
}

}  // namespace
}  // namespace tka::topk
