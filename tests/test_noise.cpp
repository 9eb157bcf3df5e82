// Tests for the noise engine: coupling calculators, envelope construction
// and the envelope table, delay-noise superposition, the iterative
// window/noise fixpoint and the false-aggressor rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>

#include "fixtures.hpp"
#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/envelope_builder.hpp"
#include "noise/iterative.hpp"
#include "noise/noise_analyzer.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "sta/analyzer.hpp"
#include "topk/stages/baseline_stage.hpp"
#include "wave/ramp.hpp"

namespace tka::noise {
namespace {

using test::Fixture;

struct Bound {
  sta::DelayModel model;
  sta::StaResult sta;
  Bound(const Fixture& fx)
      : model(*fx.netlist, fx.parasitics),
        sta(sta::run_sta(*fx.netlist, model, fx.sta_options())) {}
};

gen::GeneratedCircuit generated_circuit(std::uint64_t seed) {
  gen::GeneratorParams p;
  p.name = "envtable";
  p.num_gates = 60;
  p.target_couplings = 140;
  p.seed = seed;
  return gen::generate_circuit(p);
}

// A generated design with its noiseless windows, for the envelope-table
// tests that need many coupling sides.
struct Generated {
  gen::GeneratedCircuit ckt;
  sta::DelayModel model;
  sta::StaResult sta;
  AnalyticCouplingCalculator calc;
  explicit Generated(std::uint64_t seed)
      : ckt(generated_circuit(seed)),
        model(*ckt.netlist, ckt.parasitics),
        sta(sta::run_sta(*ckt.netlist, model, ckt.sta_options())),
        calc(ckt.parasitics, model) {}

  /// Every (victim, cap) side, cap-major.
  std::vector<std::pair<net::NetId, layout::CapId>> sides() const {
    std::vector<std::pair<net::NetId, layout::CapId>> out;
    for (layout::CapId id = 0; id < ckt.parasitics.num_couplings(); ++id) {
      const layout::CouplingCap& cc = ckt.parasitics.coupling(id);
      out.emplace_back(cc.net_a, id);
      out.emplace_back(cc.net_b, id);
    }
    return out;
  }
};

bool same_bits(const wave::Pwl& a, const wave::Pwl& b) {
  return a.size() == b.size() &&
         std::memcmp(a.points().data(), b.points().data(),
                     a.size() * sizeof(wave::Point)) == 0;
}

TEST(AnalyticCalc, PeakFormulaAndBounds) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n0", "c1_n0", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  const net::NetId victim = fx.netlist->net_by_name("c0_n0");
  const wave::PulseShape s = calc.pulse(victim, cap, 0.05);
  EXPECT_GT(s.peak, 0.0);
  // Never above the charge-sharing bound Vdd*Cc/(Cv+Cc).
  const double cv = b.model.net_load_pf(victim);
  EXPECT_LE(s.peak, 1.2 * 0.006 / (cv + 0.006) + 1e-9);
  EXPECT_DOUBLE_EQ(s.rise, 0.05);
  EXPECT_NEAR(s.tau, b.model.driver_res_kohm(victim) * (cv + 0.006), 1e-12);
}

TEST(AnalyticCalc, PeakMonotonicInCap) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId small = test::couple(fx, "c0_n0", "c1_n0", 0.002);
  const layout::CapId big = test::couple(fx, "c0_n1", "c1_n1", 0.008);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EXPECT_GT(calc.pulse(fx.netlist->net_by_name("c0_n1"), big, 0.05).peak,
            calc.pulse(fx.netlist->net_by_name("c0_n0"), small, 0.05).peak);
}

TEST(AnalyticCalc, SlowerAggressorSmallerPeak) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n0", "c1_n0", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  const net::NetId v = fx.netlist->net_by_name("c0_n0");
  EXPECT_GT(calc.pulse(v, cap, 0.02).peak, calc.pulse(v, cap, 0.5).peak);
}

TEST(AnalyticCalc, ZeroedCapGivesZeroPulse) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n0", "c1_n0", 0.006);
  fx.parasitics.zero_coupling(cap);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EXPECT_DOUBLE_EQ(calc.pulse(fx.netlist->net_by_name("c0_n0"), cap, 0.05).peak, 0.0);
}

TEST(AnalyticVsSim, PeaksAgreeWithinModelError) {
  // The closed form and the MNA template should agree on peak within a
  // factor ~2 across a parameter sweep (they model the same physics at
  // different fidelity).
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n0", "c1_n0", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator ana(fx.parasitics, b.model);
  SimCouplingCalculator sim(*fx.netlist, fx.parasitics, b.model);
  const net::NetId v = fx.netlist->net_by_name("c0_n0");
  for (double tr : {0.02, 0.05, 0.15, 0.4}) {
    const double pa = ana.pulse(v, cap, tr).peak;
    const double ps = sim.pulse(v, cap, tr).peak;
    ASSERT_GT(ps, 0.0);
    EXPECT_LT(pa / ps, 2.5) << "tr=" << tr;
    EXPECT_GT(pa / ps, 0.4) << "tr=" << tr;
  }
}

TEST(DelayNoise, HandComputedRectangleEnvelope) {
  const double vdd = 1.0;
  const wave::Pwl vic = wave::make_rising_ramp(1.0, 0.2, vdd);
  // Rectangle of 0.3 V over [0.9, 1.5] (with sharp edges).
  const wave::Pwl env({{0.9, 0.0}, {0.9001, 0.3}, {1.5, 0.3}, {1.5001, 0.0}});
  // Ramp reaches 0.8 V (so ramp-0.3 = 0.5) at t = 0.9 + 0.8*0.2 = 1.06.
  EXPECT_NEAR(delay_noise(vic, env, vdd, 1.0), 0.06, 1e-3);
}

TEST(DelayNoise, TallEnvelopeDelaysPastItsEnd) {
  const double vdd = 1.0;
  const wave::Pwl vic = wave::make_rising_ramp(1.0, 0.2, vdd);
  // 0.6 V held until 1.5 then linear to 0 at 1.6: vic-env crosses 0.5 when
  // env = 0.5 on the falling edge -> t = 1.5 + 0.1/6.
  const wave::Pwl env({{0.8, 0.0}, {0.8001, 0.6}, {1.5, 0.6}, {1.6, 0.0}});
  EXPECT_NEAR(delay_noise(vic, env, vdd, 1.0), 0.5 + 0.1 / 6.0, 1e-3);
}

TEST(DelayNoise, EnvelopeBeforeTransitionIsHarmless) {
  const double vdd = 1.0;
  const wave::Pwl vic = wave::make_rising_ramp(5.0, 0.2, vdd);
  const wave::Pwl env({{0.0, 0.0}, {0.1, 0.4}, {1.0, 0.0}});
  EXPECT_DOUBLE_EQ(delay_noise(vic, env, vdd, 5.0), 0.0);
}

TEST(DelayNoise, MonotoneInEnvelopeHeight) {
  const double vdd = 1.2;
  const wave::Pwl vic = wave::make_rising_ramp(2.0, 0.3, vdd);
  double prev = -1.0;
  for (double h : {0.05, 0.15, 0.3, 0.6, 0.9}) {
    const wave::Pwl env({{1.8, 0.0}, {1.9, h}, {2.6, h}, {3.0, 0.0}});
    const double dn = delay_noise(vic, env, vdd, 2.0);
    EXPECT_GE(dn, prev);
    prev = dn;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(CouplingMaskOps, AllNoneCountSet) {
  CouplingMask all = CouplingMask::all(5);
  CouplingMask none = CouplingMask::none(5);
  EXPECT_EQ(all.count(), 5u);
  EXPECT_EQ(none.count(), 0u);
  none.set(2, true);
  EXPECT_TRUE(none.active(2));
  EXPECT_EQ(none.count(), 1u);
  all.set(0, false);
  EXPECT_EQ(all.count(), 4u);
}

TEST(EnvelopeBuilderTest, EnvelopeSpansAggressorWindow) {
  Fixture fx = test::make_parallel_chains(2, 2);
  test::set_arrival(fx, "c1_in", 0.0, 0.4);  // wide aggressor window
  const layout::CapId cap = test::couple(fx, "c0_n1", "c1_n1", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  const net::NetId v = fx.netlist->net_by_name("c0_n1");
  const net::NetId a = fx.netlist->net_by_name("c1_n1");
  const wave::Pwl& env = builder.envelope(v, cap);
  ASSERT_FALSE(env.empty());
  const sta::TimingWindow& aw = b.sta.windows[a];
  EXPECT_GT(aw.width(), 0.3);  // window survived propagation
  // The envelope peak plateau covers [eat+rise-ish, lat+rise-ish].
  const wave::PulseShape s = builder.pulse_shape(v, cap);
  EXPECT_NEAR(env.peak(), s.peak, 1e-9);
  EXPECT_NEAR(env.value(aw.eat + 0.5 * s.rise), s.peak, s.peak * 0.5);
  EXPECT_NEAR(env.value(aw.lat), s.peak, s.peak * 0.25);
}

TEST(EnvelopeBuilderTest, WidenedEnvelopeDominates) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n1", "c1_n1", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  const net::NetId v = fx.netlist->net_by_name("c0_n1");
  const wave::Pwl base = builder.envelope(v, cap);
  const wave::Pwl wide = builder.envelope_widened(v, cap, 0.3);
  EXPECT_TRUE(wide.encapsulates(base, -10.0, 10.0, 1e-9));
  EXPECT_GT(wide.integral(), base.integral());
  // Narrowing never exceeds the base.
  const wave::Pwl narrow = builder.envelope_widened(v, cap, -10.0);
  EXPECT_TRUE(base.encapsulates(narrow, -10.0, 10.0, 1e-9));
}

TEST(EnvelopeBuilderTest, PlateauCoversTrapezoid) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n1", "c1_n1", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  const net::NetId v = fx.netlist->net_by_name("c0_n1");
  const net::NetId a = fx.netlist->net_by_name("c1_n1");
  const sta::TimingWindow& aw = b.sta.windows[a];
  const wave::Pwl plateau =
      builder.plateau_envelope(v, cap, aw.eat - 1.0, aw.lat + 5.0);
  EXPECT_TRUE(plateau.encapsulates(builder.envelope(v, cap), -10.0, 20.0, 1e-9));
}

TEST(EnvelopeTable, ConcurrentRequestsBuildEachSideOnce) {
  Generated g(17);
  EnvelopeBuilder builder(*g.ckt.netlist, g.ckt.parasitics, g.calc,
                          g.sta.windows);
  const auto sides = g.sides();
  ASSERT_GT(sides.size(), 100u);
  obs::Counter& hits = obs::registry().counter("noise.envelope_cache_hits");
  obs::Counter& misses = obs::registry().counter("noise.envelope_cache_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  // Every thread requests every side, each in its own shuffled order, so
  // first requests of a side race across threads.
  constexpr int kThreads = 4;
  std::vector<std::vector<const wave::Pwl*>> seen(
      kThreads, std::vector<const wave::Pwl*>(sides.size(), nullptr));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::size_t> order(sides.size());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), std::mt19937(t + 1));
      for (std::size_t i : order) {
        seen[t][i] = &builder.envelope(sides[i].first, sides[i].second);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(misses.value() - misses_before, sides.size());
  EXPECT_EQ(hits.value() - hits_before, (kThreads - 1) * sides.size());
  for (std::size_t i = 0; i < sides.size(); ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]) << i;
    const wave::Pwl fresh =
        builder.envelope_widened(sides[i].first, sides[i].second, 0.0);
    EXPECT_TRUE(same_bits(*seen[0][i], fresh)) << i;
  }
}

TEST(EnvelopeTable, InvalidationRebuildsSamePointsAndReleasesBytes) {
  Generated g(23);
  const auto sides = g.sides();
  const layout::Parasitics& par = g.ckt.parasitics;
  obs::Counter& misses = obs::registry().counter("noise.envelope_cache_misses");
  obs::Counter& invalidated =
      obs::registry().counter("noise.envelope_cache_invalidated");
  {
    EnvelopeBuilder builder(*g.ckt.netlist, par, g.calc, g.sta.windows);
    std::vector<wave::Pwl> first;
    for (const auto& [v, cap] : sides) first.push_back(builder.envelope(v, cap));
    const std::int64_t full_bytes =
        obs::TrackedBytes::total("mem.envelope_cache_bytes");

    // Drop every side of one net, plus one coupling that does not touch it.
    const net::NetId net = sides.front().first;
    layout::CapId far = 0;
    while (par.coupling(far).net_a == net || par.coupling(far).net_b == net) {
      ++far;
    }
    const std::uint64_t inval_before = invalidated.value();
    builder.invalidate_net(net);
    builder.invalidate_cap(far);
    const std::uint64_t dropped = 2 * par.couplings_of(net).size() + 2;
    const std::uint64_t misses_before = misses.value();
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const wave::Pwl& again = builder.envelope(sides[i].first, sides[i].second);
      EXPECT_TRUE(same_bits(again, first[i])) << i;
    }
    EXPECT_EQ(invalidated.value() - inval_before, dropped);
    EXPECT_EQ(misses.value() - misses_before, dropped);
    EXPECT_GT(full_bytes, 0);
    EXPECT_EQ(obs::TrackedBytes::total("mem.envelope_cache_bytes"), full_bytes);
  }
  EXPECT_EQ(obs::TrackedBytes::total("mem.envelope_cache_bytes"), 0);
}

TEST(Analyzer, MoreAggressorsMoreNoise) {
  Fixture fx = test::make_parallel_chains(3, 3);
  const layout::CapId c1 = test::couple(fx, "c0_n2", "c1_n2", 0.005);
  const layout::CapId c2 = test::couple(fx, "c0_n2", "c2_n2", 0.005);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  NoiseAnalyzer analyzer(*fx.netlist, fx.parasitics, b.model);
  const net::NetId v = fx.netlist->net_by_name("c0_n2");

  CouplingMask one = CouplingMask::none(fx.parasitics.num_couplings());
  one.set(c1, true);
  CouplingMask two = CouplingMask::all(fx.parasitics.num_couplings());
  (void)c2;
  const double dn1 = analyzer.victim_delay_noise(v, builder, one);
  const double dn2 = analyzer.victim_delay_noise(v, builder, two);
  EXPECT_GT(dn1, 0.0);
  EXPECT_GE(dn2, dn1);
}

TEST(Analyzer, UpperBoundDominatesActual) {
  Fixture fx = test::make_parallel_chains(3, 4);
  test::set_arrival(fx, "c1_in", 0.0, 0.2);
  test::set_arrival(fx, "c2_in", 0.1, 0.3);
  test::couple(fx, "c0_n3", "c1_n3", 0.006);
  test::couple(fx, "c0_n3", "c2_n3", 0.004);
  test::couple(fx, "c0_n2", "c1_n2", 0.005);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  NoiseAnalyzer analyzer(*fx.netlist, fx.parasitics, b.model);
  const CouplingMask all = CouplingMask::all(fx.parasitics.num_couplings());
  for (net::NetId v = 0; v < fx.netlist->num_nets(); ++v) {
    const double dn = analyzer.victim_delay_noise(v, builder, all);
    const double ub = analyzer.delay_noise_upper_bound(v, builder, all);
    EXPECT_GE(ub + 1e-9, dn) << "net " << fx.netlist->net(v).name;
  }
}

// The engine's dominance interval of a victim (BaselineState::iv after a
// cold prime) opens at the victim's noiseless t50 and closes past it by the
// path-accumulated delay-noise upper bound.
TEST(Analyzer, DominanceIntervalAnchoredAtT50) {
  Fixture fx = test::make_parallel_chains(2, 2);
  test::couple(fx, "c0_n1", "c1_n1", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  topk::TopkOptions opt;
  opt.mode = topk::Mode::kAddition;
  opt.iterative.sta = fx.sta_options();
  topk::stages::BaselineState state;
  topk::stages::BaselineStage::prime({fx.netlist.get(), &fx.parasitics,
                                      &b.model, &calc},
                                     opt, opt.iterative, &state);
  const net::NetId v = fx.netlist->net_by_name("c0_n1");
  EXPECT_DOUBLE_EQ(state.iv[v].lo, b.sta.windows[v].lat);
  EXPECT_GT(state.iv[v].hi, state.iv[v].lo);
}

TEST(Iterative, NoCouplingsMeansNoNoise) {
  Fixture fx = test::make_parallel_chains(2, 3);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  IterativeOptions opt;
  opt.sta = fx.sta_options();
  const NoiseReport rep = analyze_iterative(
      *fx.netlist, fx.parasitics, b.model, calc,
      CouplingMask::all(fx.parasitics.num_couplings()), opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(rep.noisy_delay, rep.noiseless_delay);
}

TEST(Iterative, NoisyDelayAtLeastNoiseless) {
  Fixture fx = test::make_parallel_chains(3, 4);
  test::couple(fx, "c0_n3", "c1_n3", 0.006);
  test::couple(fx, "c0_n2", "c2_n2", 0.005);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  IterativeOptions opt;
  opt.sta = fx.sta_options();
  const NoiseReport rep = analyze_iterative(
      *fx.netlist, fx.parasitics, b.model, calc,
      CouplingMask::all(fx.parasitics.num_couplings()), opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.noisy_delay, rep.noiseless_delay);
  for (net::NetId n = 0; n < fx.netlist->num_nets(); ++n) {
    EXPECT_GE(rep.noisy_windows[n].lat + 1e-12, rep.noiseless_windows[n].lat);
    EXPECT_GE(rep.delay_noise[n], 0.0);
  }
}

TEST(Iterative, MaskControlsParticipation) {
  Fixture fx = test::make_parallel_chains(2, 3);
  const layout::CapId cap = test::couple(fx, "c0_n2", "c1_n2", 0.006);
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  IterativeOptions opt;
  opt.sta = fx.sta_options();
  CouplingMask none = CouplingMask::none(fx.parasitics.num_couplings());
  const NoiseReport off = analyze_iterative(*fx.netlist, fx.parasitics, b.model,
                                            calc, none, opt);
  EXPECT_DOUBLE_EQ(off.noisy_delay, off.noiseless_delay);
  none.set(cap, true);
  const NoiseReport on = analyze_iterative(*fx.netlist, fx.parasitics, b.model,
                                           calc, none, opt);
  EXPECT_GT(on.noisy_delay, off.noisy_delay);
}

TEST(Iterative, IndirectAggressorNeedsIterations) {
  // Figure-1 scenario: a2 couples to a1's net; a1 couples to the victim.
  // When the victim switches just after a1's noiseless envelope ends, a1
  // alone is harmless — but a2's noise widens a1's window enough to reach
  // the victim. Indirect noise appears only through iteration, so there
  // must exist a victim alignment where the all-aggressor fixpoint beats
  // the a1-only one. Sweep the victim arrival to find it.
  bool found = false;
  for (double arrival = 0.25; arrival <= 0.60 && !found; arrival += 0.004) {
    Fixture fx = test::make_parallel_chains(3, 2, 0.012, 0.05);
    // Chain 0 = victim (arrives late), chain 1 = a1, chain 2 = a2 (overlaps
    // a1's transition so it can widen a1's window).
    test::set_arrival(fx, "c0_in", arrival, arrival);
    test::set_arrival(fx, "c1_in", 0.00, 0.02);
    test::set_arrival(fx, "c2_in", 0.00, 0.10);
    const layout::CapId a1_v = test::couple(fx, "c0_n1", "c1_n1", 0.02);
    test::couple(fx, "c1_n1", "c2_n1", 0.02);
    Bound b(fx);
    AnalyticCouplingCalculator calc(fx.parasitics, b.model);
    IterativeOptions opt;
    opt.sta = fx.sta_options();

    CouplingMask only_a1 = CouplingMask::none(fx.parasitics.num_couplings());
    only_a1.set(a1_v, true);
    const NoiseReport rep1 = analyze_iterative(*fx.netlist, fx.parasitics,
                                               b.model, calc, only_a1, opt);
    const CouplingMask all = CouplingMask::all(fx.parasitics.num_couplings());
    const NoiseReport rep2 = analyze_iterative(*fx.netlist, fx.parasitics,
                                               b.model, calc, all, opt);
    const double dn1 = rep1.noisy_delay - rep1.noiseless_delay;
    const double dn2 = rep2.noisy_delay - rep2.noiseless_delay;
    if (dn2 > dn1 + 5e-5 && dn1 < 1e-4 && rep2.iterations >= 2) found = true;
  }
  EXPECT_TRUE(found);
}

// refresh() after each shield edit must equal a cold recompute() on an
// independently edited copy, bit for bit.
TEST(IncrementalFixpointTest, RefreshMatchesColdRecompute) {
  for (std::uint64_t seed : {3, 5, 8, 13, 21, 34}) {
    gen::GeneratorParams p;
    p.name = "incfix";
    p.num_gates = 120;
    p.target_couplings = 300;
    p.seed = seed;
    gen::GeneratedCircuit ckt = gen::generate_circuit(p);
    layout::Parasitics cold_par(ckt.parasitics);
    IterativeOptions opt;
    opt.sta = ckt.sta_options();
    const std::size_t num_caps = ckt.parasitics.num_couplings();
    const CouplingMask all = CouplingMask::all(num_caps);

    sta::DelayModel model(*ckt.netlist, ckt.parasitics);
    AnalyticCouplingCalculator calc(ckt.parasitics, model);
    IncrementalFixpoint warm(*ckt.netlist, ckt.parasitics, model, calc, opt);
    warm.recompute(all);

    std::mt19937 rng(static_cast<unsigned>(seed));
    for (int e = 0; e < 6; ++e) {
      const layout::CapId cap = static_cast<layout::CapId>(rng() % num_caps);
      ckt.parasitics.shield_coupling(cap);
      cold_par.shield_coupling(cap);
      const layout::CouplingCap& cc = ckt.parasitics.coupling(cap);
      const net::NetId nets[] = {cc.net_a, cc.net_b};
      const layout::CapId caps[] = {cap};
      const NoiseReport& got = warm.refresh(nets, caps, all);

      sta::DelayModel cold_model(*ckt.netlist, cold_par);
      AnalyticCouplingCalculator cold_calc(cold_par, cold_model);
      IncrementalFixpoint cold(*ckt.netlist, cold_par, cold_model, cold_calc,
                               opt);
      const NoiseReport& want = cold.recompute(all);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " edit " << e);
      EXPECT_EQ(got.delay_noise, want.delay_noise);
      EXPECT_EQ(got.noisy_delay, want.noisy_delay);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(got.converged, want.converged);
    }
  }
}

// Cold runs and replays tick disjoint counters, and a replay after no
// edit reuses every recorded step: no full STA runs and no victim relaxes.
TEST(IncrementalFixpointTest, CountersSplitColdFromReplay) {
  gen::GeneratorParams p;
  p.name = "incfix";
  p.num_gates = 120;
  p.target_couplings = 300;
  p.seed = 5;
  const gen::GeneratedCircuit ckt = gen::generate_circuit(p);
  sta::DelayModel model(*ckt.netlist, ckt.parasitics);
  AnalyticCouplingCalculator calc(ckt.parasitics, model);
  IterativeOptions opt;
  opt.sta = ckt.sta_options();
  opt.threads = 1;
  const CouplingMask all = CouplingMask::all(ckt.parasitics.num_couplings());

  // Counter deltas over one call.
  obs::MetricsSnapshot delta;
  const auto count = [&delta](const auto& call) {
    const obs::MetricsSnapshot before = obs::registry().snapshot();
    call();
    delta = obs::counters_delta(before, obs::registry().snapshot());
  };
  const auto ticks = [&delta](const char* name) {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto expect_cold = [&](int iterations) {
    const auto iters = static_cast<std::uint64_t>(iterations);
    EXPECT_EQ(ticks("noise.fixpoint_runs"), 1u);
    EXPECT_EQ(ticks("noise.fixpoint_iterations"), iters);
    EXPECT_EQ(ticks("sta.runs"), iters + 2);
    EXPECT_EQ(ticks("noise.fixpoint_refreshes"), 0u);
    EXPECT_EQ(ticks("noise.fixpoint_refresh_iterations"), 0u);
    EXPECT_EQ(ticks("noise.fixpoint_refresh_victims"), 0u);
  };
  const auto expect_same = [](const NoiseReport& a, const NoiseReport& b) {
    EXPECT_EQ(a.noiseless_windows, b.noiseless_windows);
    EXPECT_EQ(a.noisy_windows, b.noisy_windows);
    EXPECT_EQ(a.delay_noise, b.delay_noise);
    EXPECT_EQ(a.noiseless_delay, b.noiseless_delay);
    EXPECT_EQ(a.noisy_delay, b.noisy_delay);
    EXPECT_EQ(a.worst_po, b.worst_po);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
  };

  NoiseReport cold;
  count([&] {
    cold = analyze_iterative(*ckt.netlist, ckt.parasitics, model, calc, all,
                             opt);
  });
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 1);
  expect_cold(cold.iterations);

  IncrementalFixpoint fp(*ckt.netlist, ckt.parasitics, model, calc, opt);
  count([&] { fp.recompute(all); });
  expect_same(fp.report(), cold);
  expect_cold(cold.iterations);

  count([&] { fp.refresh({}, {}, all); });
  expect_same(fp.report(), cold);
  EXPECT_TRUE(fp.changed_noiseless().empty());
  EXPECT_TRUE(fp.changed_noisy().empty());
  EXPECT_EQ(ticks("noise.fixpoint_refreshes"), 1u);
  EXPECT_EQ(ticks("noise.fixpoint_refresh_iterations"),
            static_cast<std::uint64_t>(cold.iterations));
  EXPECT_EQ(ticks("noise.fixpoint_refresh_victims"), 0u);
  EXPECT_EQ(ticks("sta.runs"), 0u);
  EXPECT_EQ(ticks("noise.fixpoint_runs"), 0u);
  EXPECT_EQ(ticks("noise.fixpoint_iterations"), 0u);
}

// The false-aggressor rule on one side of `fx`, under its noiseless
// windows and the victim's upper bound over all of its couplings.
bool false_side(const Fixture& fx, const char* victim, layout::CapId cap) {
  Bound b(fx);
  AnalyticCouplingCalculator calc(fx.parasitics, b.model);
  EnvelopeBuilder builder(*fx.netlist, fx.parasitics, calc, b.sta.windows);
  NoiseAnalyzer analyzer(*fx.netlist, fx.parasitics, b.model);
  const net::NetId v = fx.netlist->net_by_name(victim);
  const double ub = analyzer.delay_noise_upper_bound(
      v, builder, CouplingMask::all(fx.parasitics.num_couplings()));
  return is_false_aggressor(fx.parasitics, builder, v, cap, ub);
}

TEST(Filter, FarWindowAggressorFiltered) {
  Fixture fx = test::make_parallel_chains(2, 2);
  // Aggressor switches far after the victim (5 ns later): can never hit it.
  test::set_arrival(fx, "c1_in", 5.0, 5.2);
  const layout::CapId cap = test::couple(fx, "c0_n1", "c1_n1", 0.006);
  EXPECT_TRUE(false_side(fx, "c0_n1", cap));
  // On the reverse side the roles swap: victim c1_n1 switches at 5 ns; the
  // aggressor (c0_n1, switching at ~0) ends long before -> also false.
  EXPECT_TRUE(false_side(fx, "c1_n1", cap));
}

TEST(Filter, OverlappingAggressorKept) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId cap = test::couple(fx, "c0_n1", "c1_n1", 0.006);
  EXPECT_FALSE(false_side(fx, "c0_n1", cap));
}

TEST(Filter, ZeroedAndTinyCapsFiltered) {
  Fixture fx = test::make_parallel_chains(2, 2);
  const layout::CapId dead = test::couple(fx, "c0_n0", "c1_n0", 0.005);
  const layout::CapId tiny = test::couple(fx, "c0_n1", "c1_n1", 1.2e-6);
  fx.parasitics.zero_coupling(dead);
  EXPECT_TRUE(false_side(fx, "c0_n0", dead));
  EXPECT_TRUE(false_side(fx, "c0_n1", tiny));
}

}  // namespace
}  // namespace tka::noise
