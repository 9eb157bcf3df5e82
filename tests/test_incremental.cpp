// Tests for incremental STA: bit-exact equivalence with full re-analysis
// after parasitic and LAT-bump edits, and bounded re-propagation.
#include <gtest/gtest.h>

#include <utility>

#include "gen/circuit_generator.hpp"
#include "layout/parasitics.hpp"
#include "net/builder.hpp"
#include "sta/incremental.hpp"
#include "util/string_util.hpp"

namespace tka::sta {
namespace {

// Bit-exact equality with a full run: windows by TimingWindow's exact
// member compare, the gate tables and the worst-PO summary.
void expect_equal(const StaResult& a, const StaResult& b) {
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_TRUE(a.windows[i] == b.windows[i]) << "net " << i;
  }
  EXPECT_EQ(a.gate_delay, b.gate_delay);
  EXPECT_EQ(a.gate_trans, b.gate_trans);
  EXPECT_EQ(a.max_lat, b.max_lat);
  EXPECT_EQ(a.worst_po, b.worst_po);
}

// Starts incremental STA from a full run, as every caller does.
IncrementalSta primed(const net::Netlist& nl, const DelayModel& model,
                      const StaOptions& options = {}) {
  return IncrementalSta(nl, model, options, run_sta(nl, model, options), {});
}

gen::GeneratedCircuit generated(std::uint64_t seed) {
  gen::GeneratorParams p;
  p.name = "inc";
  p.num_gates = 80;
  p.target_couplings = 200;
  p.seed = seed;
  return gen::generate_circuit(p);
}

TEST(IncrementalSta, MatchesFullAfterCapChange) {
  auto nl = net::make_c17();
  layout::Parasitics par(nl->num_nets());
  for (net::NetId n = 0; n < nl->num_nets(); ++n) par.add_ground_cap(n, 0.01);
  DelayModel model(*nl, par);
  IncrementalSta inc = primed(*nl, model);

  const net::NetId target = nl->net_by_name("N11");
  par.add_ground_cap(target, 0.05);
  inc.invalidate_net(target);
  const size_t changed = inc.update();
  EXPECT_GT(changed, 0u);
  expect_equal(inc.result(), run_sta(*nl, model));
}

TEST(IncrementalSta, NoChangeIsCheap) {
  auto nl = net::make_c17();
  layout::Parasitics par(nl->num_nets());
  for (net::NetId n = 0; n < nl->num_nets(); ++n) par.add_ground_cap(n, 0.01);
  DelayModel model(*nl, par);
  IncrementalSta inc = primed(*nl, model);
  inc.invalidate_net(nl->net_by_name("N11"));
  // Nothing actually changed in the parasitics.
  EXPECT_EQ(inc.update(), 0u);
  expect_equal(inc.result(), run_sta(*nl, model));
}

TEST(IncrementalSta, CoupledShieldWorkflow) {
  gen::GeneratedCircuit ckt = generated(17);
  DelayModel model(*ckt.netlist, ckt.parasitics);
  IncrementalSta inc = primed(*ckt.netlist, model, ckt.sta_options());

  // Shield the five largest couplings one at a time; the incremental result
  // must track the full recomputation at every step.
  std::vector<layout::CapId> order;
  for (layout::CapId id = 0; id < ckt.parasitics.num_couplings(); ++id) {
    order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](layout::CapId a, layout::CapId b) {
    return ckt.parasitics.coupling(a).cap_pf > ckt.parasitics.coupling(b).cap_pf;
  });
  for (int i = 0; i < 5; ++i) {
    const layout::CouplingCap cc = ckt.parasitics.coupling(order[i]);
    ckt.parasitics.shield_coupling(order[i]);
    inc.invalidate_net(cc.net_a);
    inc.invalidate_net(cc.net_b);
    inc.update();
    expect_equal(inc.result(), run_sta(*ckt.netlist, model, ckt.sta_options()));
  }
}

// The noise fixpoint's replay step: adopt a run under one bump vector and
// move a few nets to another vector's bumps (raised, lowered, cleared).
// Only those nets and the cones their windows reach are recomputed, yet
// the result must be the full run under the other vector.
TEST(IncrementalSta, AdoptedRunTracksChangedBumps) {
  gen::GeneratedCircuit ckt = generated(29);
  const net::Netlist& nl = *ckt.netlist;
  DelayModel model(nl, ckt.parasitics);
  const StaOptions opt = ckt.sta_options();
  std::vector<double> bumps_a(nl.num_nets(), 0.0);
  for (net::NetId n = 0; n < nl.num_nets(); n += 3) bumps_a[n] = 0.001 * (n % 7);

  IncrementalSta inc(nl, model, opt, run_sta(nl, model, opt, &bumps_a),
                     bumps_a);
  std::vector<double> bumps_b = bumps_a;
  const std::pair<net::NetId, double> moves[] = {
      {2, 0.0125}, {9, 0.02}, {12, 0.0}, {33, 0.004}, {57, 0.03}};
  for (const auto& [n, bump] : moves) {
    bumps_b[n] = bump;
    inc.set_lat_bump(n, bump);
  }
  EXPECT_GT(inc.update(), 0u);
  expect_equal(inc.result(), run_sta(nl, model, opt, &bumps_b));
}

TEST(IncrementalSta, PiArrivalRefreshOnInvalidate) {
  auto nl = net::make_chain(3);
  layout::Parasitics par(nl->num_nets());
  for (net::NetId n = 0; n < nl->num_nets(); ++n) par.add_ground_cap(n, 0.01);
  DelayModel model(*nl, par);
  double arrival = 0.0;
  StaOptions opt;
  opt.input_arrival = [&arrival](net::NetId) {
    return InputArrival{arrival, arrival};
  };
  IncrementalSta inc = primed(*nl, model, opt);
  const double base = inc.result().max_lat;

  arrival = 0.3;
  inc.invalidate_net(nl->primary_inputs().front());
  inc.update();
  EXPECT_NEAR(inc.result().max_lat, base + 0.3, 1e-12);
}

TEST(IncrementalSta, OnlyConeRecomputed) {
  // Changing the last net of one chain must not touch the other chain.
  auto nl = net::make_chain(4, "x");
  // Build a second independent chain in the same netlist.
  const net::CellLibrary& lib = nl->library();
  net::NetId cur = nl->add_primary_input("in2");
  for (int i = 0; i < 4; ++i) {
    cur = nl->add_gate(lib.index_of("BUFX1"), {cur}, str::format("y%d", i));
  }
  nl->mark_primary_output(cur);

  layout::Parasitics par(nl->num_nets());
  for (net::NetId n = 0; n < nl->num_nets(); ++n) par.add_ground_cap(n, 0.01);
  DelayModel model(*nl, par);
  IncrementalSta inc = primed(*nl, model);

  const net::NetId tail1 = nl->net_by_name("n3");
  par.add_ground_cap(tail1, 0.1);
  inc.invalidate_net(tail1);
  const size_t changed = inc.update();
  // Only the final net of chain 1 changes (its driver's delay).
  EXPECT_EQ(changed, 1u);
  expect_equal(inc.result(), run_sta(*nl, model));
}

}  // namespace
}  // namespace tka::sta
