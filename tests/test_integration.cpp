// End-to-end integration tests: the full generate -> place/route/extract ->
// STA -> noise fixpoint -> top-k pipeline on synthetic benchmark circuits,
// including cross-module round trips and determinism.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/benchmark_suite.hpp"
#include "gen/circuit_generator.hpp"
#include "io/bench_reader.hpp"
#include "io/dot_writer.hpp"
#include "io/spef_lite.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "session/analysis_session.hpp"
#include "sta/critical_path.hpp"
#include "topk/topk_engine.hpp"

namespace tka {
namespace {

struct Pipeline {
  gen::GeneratedCircuit ckt;
  std::unique_ptr<sta::DelayModel> model;
  std::unique_ptr<noise::AnalyticCouplingCalculator> calc;

  explicit Pipeline(gen::GeneratedCircuit c) : ckt(std::move(c)) {
    model = std::make_unique<sta::DelayModel>(*ckt.netlist, ckt.parasitics);
    calc = std::make_unique<noise::AnalyticCouplingCalculator>(ckt.parasitics, *model);
  }

  topk::TopkResult run(const topk::TopkOptions& opt) const {
    session::AnalysisSession s(*ckt.netlist, ckt.parasitics, model->options());
    return s.run(opt);
  }

  topk::TopkOptions options(int k, topk::Mode mode) const {
    topk::TopkOptions opt;
    opt.k = k;
    opt.mode = mode;
    opt.beam_cap = 16;
    opt.iterative.sta = ckt.sta_options();
    return opt;
  }
};

gen::GeneratedCircuit small_circuit(std::uint64_t seed = 31) {
  gen::GeneratorParams p;
  p.name = "integration";
  p.num_gates = 60;
  p.target_couplings = 150;
  p.seed = seed;
  return gen::generate_circuit(p);
}

TEST(Integration, NoiseFixpointBracketsDelay) {
  Pipeline pl(small_circuit());
  noise::IterativeOptions it;
  it.sta = pl.ckt.sta_options();
  const noise::NoiseReport rep = noise::analyze_iterative(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc,
      noise::CouplingMask::all(pl.ckt.parasitics.num_couplings()), it);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(rep.noisy_delay, rep.noiseless_delay);
  EXPECT_LT(rep.noisy_delay, 2.5 * rep.noiseless_delay);  // sane noise level
}

TEST(Integration, AdditionResultWithinBrackets) {
  Pipeline pl(small_circuit());
  const topk::TopkResult res =
      pl.run(pl.options(5, topk::Mode::kAddition));
  EXPECT_EQ(res.members.size(), 5u);
  EXPECT_GE(res.evaluated_delay, res.baseline_delay - 1e-9);
  EXPECT_LE(res.evaluated_delay, res.reference_delay + 1e-9);
  // The top-5 addition set must actually create noise.
  EXPECT_GT(res.evaluated_delay, res.baseline_delay + 1e-6);
}

TEST(Integration, EliminationResultWithinBrackets) {
  Pipeline pl(small_circuit());
  const topk::TopkResult res =
      pl.run(pl.options(5, topk::Mode::kElimination));
  EXPECT_EQ(res.members.size(), 5u);
  EXPECT_LE(res.evaluated_delay, res.baseline_delay + 1e-9);
  EXPECT_GE(res.evaluated_delay, res.reference_delay - 1e-9);
  EXPECT_LT(res.evaluated_delay, res.baseline_delay - 1e-6);
}

TEST(Integration, AdditionTrailIsMonotoneAndTimed) {
  Pipeline pl(small_circuit());
  const topk::TopkResult res =
      pl.run(pl.options(8, topk::Mode::kAddition));
  ASSERT_EQ(res.estimated_delay_by_k.size(), 8u);
  ASSERT_EQ(res.stats.runtime_by_k.size(), 8u);
  for (size_t i = 1; i < 8; ++i) {
    EXPECT_GE(res.estimated_delay_by_k[i], res.estimated_delay_by_k[i - 1] - 1e-9);
    EXPECT_GE(res.stats.runtime_by_k[i], res.stats.runtime_by_k[i - 1]);
  }
  // Finalists exist for every cardinality on a circuit this dense.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(res.finalists_by_k[i].empty()) << "k=" << i + 1;
  }
}

TEST(Integration, EliminationTrailIsMonotone) {
  Pipeline pl(small_circuit());
  const topk::TopkResult res =
      pl.run(pl.options(8, topk::Mode::kElimination));
  for (size_t i = 1; i < 8; ++i) {
    EXPECT_LE(res.estimated_delay_by_k[i], res.estimated_delay_by_k[i - 1] + 1e-9);
  }
}

TEST(Integration, FullyDeterministic) {
  Pipeline a(small_circuit(99));
  Pipeline b(small_circuit(99));
  const topk::TopkResult ra = a.run(a.options(4, topk::Mode::kAddition));
  const topk::TopkResult rb = b.run(b.options(4, topk::Mode::kAddition));
  EXPECT_EQ(ra.members, rb.members);
  EXPECT_DOUBLE_EQ(ra.evaluated_delay, rb.evaluated_delay);
  EXPECT_DOUBLE_EQ(ra.baseline_delay, rb.baseline_delay);
}

TEST(Integration, SpefRoundTripPreservesAnalysis) {
  Pipeline pl(small_circuit());
  std::ostringstream os;
  io::write_spef_lite(os, *pl.ckt.netlist, pl.ckt.parasitics);
  std::istringstream is(os.str());
  const layout::Parasitics back = io::read_spef_lite(is, *pl.ckt.netlist);

  sta::DelayModel model2(*pl.ckt.netlist, back);
  noise::AnalyticCouplingCalculator calc2(back, model2);
  noise::IterativeOptions it;
  it.sta = pl.ckt.sta_options();
  const noise::NoiseReport r1 = noise::analyze_iterative(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc,
      noise::CouplingMask::all(pl.ckt.parasitics.num_couplings()), it);
  const noise::NoiseReport r2 = noise::analyze_iterative(
      *pl.ckt.netlist, back, model2, calc2,
      noise::CouplingMask::all(back.num_couplings()), it);
  EXPECT_NEAR(r1.noisy_delay, r2.noisy_delay, 1e-9);
  EXPECT_NEAR(r1.noiseless_delay, r2.noiseless_delay, 1e-9);
}

TEST(Integration, ShieldingRemovesNoiseKeepsLoad) {
  Pipeline pl(small_circuit());
  noise::IterativeOptions it;
  it.sta = pl.ckt.sta_options();
  const noise::NoiseReport before = noise::analyze_iterative(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc,
      noise::CouplingMask::all(pl.ckt.parasitics.num_couplings()), it);

  // Shield every coupling: noise vanishes, loading stays.
  for (layout::CapId id = 0; id < pl.ckt.parasitics.num_couplings(); ++id) {
    pl.ckt.parasitics.shield_coupling(id);
  }
  const noise::NoiseReport after = noise::analyze_iterative(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc,
      noise::CouplingMask::all(pl.ckt.parasitics.num_couplings()), it);
  EXPECT_NEAR(after.noisy_delay, after.noiseless_delay, 1e-9);
  // Grounded shields add cap (Miller factor 1 -> 2x the coupling weight of
  // the quiet state), so the noiseless delay cannot drop.
  EXPECT_GE(after.noiseless_delay, before.noiseless_delay - 1e-9);
}

TEST(Integration, SingleSinkGeneratorHasOnePo) {
  gen::GeneratorParams p;
  p.name = "ss";
  p.num_gates = 50;
  p.seed = 5;
  p.single_sink = true;
  const gen::GeneratedCircuit c = generate_circuit(p);
  c.netlist->validate();
  EXPECT_EQ(c.netlist->primary_outputs().size(), 1u);
}

TEST(Integration, DominanceOffDoesNotImproveResult) {
  // Dominance pruning is exactness-preserving under the estimator: turning
  // it off may only change runtime, not find a strictly better set.
  Pipeline pl(small_circuit(7));
  topk::TopkOptions with = pl.options(4, topk::Mode::kAddition);
  topk::TopkOptions without = pl.options(4, topk::Mode::kAddition);
  without.use_dominance = false;
  const topk::TopkResult r1 = pl.run(with);
  const topk::TopkResult r2 = pl.run(without);
  EXPECT_NEAR(r1.estimated_delay, r2.estimated_delay,
              0.02 * std::abs(r1.estimated_delay));
}

TEST(Integration, BenchParserToFullAnalysis) {
  // c17 from text through the whole flow.
  auto nl = io::read_bench_string(R"(
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
)");
  const layout::Placement placement = layout::grid_place(*nl, {});
  const auto routes = layout::route_all(*nl, placement);
  layout::ExtractorOptions ex;
  ex.max_coupling_dist = 10.0;
  const layout::Parasitics par = layout::extract(*nl, routes, ex);
  ASSERT_GT(par.num_couplings(), 0u);

  session::AnalysisSession session(*nl, par, sta::DelayModelOptions{});
  topk::TopkOptions opt;
  opt.k = 2;
  const topk::TopkResult res = session.run(opt);
  EXPECT_EQ(res.members.size(), 2u);
  EXPECT_GT(res.evaluated_delay, res.baseline_delay);
}

}  // namespace
}  // namespace tka
