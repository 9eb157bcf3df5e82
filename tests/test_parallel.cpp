// Parallel-vs-serial equivalence: every parallelized stage (task-graph
// victim sweep, noise fixpoint relaxation, brute-force enumeration,
// generator arrivals, finalist re-ranking) must be bit-identical to
// --threads 1 for any thread count — determinism is a hard contract of the
// runtime (docs/PARALLELISM.md), not a tolerance.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/circuit_generator.hpp"
#include "io/report_writer.hpp"
#include "noise/coupling_calc.hpp"
#include "noise/iterative.hpp"
#include "obs/metrics.hpp"
#include "session/analysis_session.hpp"
#include "topk/brute_force.hpp"
#include "topk/topk_engine.hpp"
#include "util/rng.hpp"

namespace tka {
namespace {

struct Pipeline {
  gen::GeneratedCircuit ckt;
  std::unique_ptr<sta::DelayModel> model;
  std::unique_ptr<noise::AnalyticCouplingCalculator> calc;

  explicit Pipeline(gen::GeneratedCircuit c) : ckt(std::move(c)) {
    model = std::make_unique<sta::DelayModel>(*ckt.netlist, ckt.parasitics);
    calc = std::make_unique<noise::AnalyticCouplingCalculator>(ckt.parasitics,
                                                               *model);
  }

  topk::TopkResult run(const topk::TopkOptions& opt) const {
    session::AnalysisSession s(*ckt.netlist, ckt.parasitics, model->options());
    return s.run(opt);
  }
};

gen::GeneratedCircuit circuit(std::uint64_t seed = 41) {
  gen::GeneratorParams p;
  p.name = "parallel";
  p.num_gates = 60;
  p.target_couplings = 140;
  p.seed = seed;
  return gen::generate_circuit(p);
}

topk::TopkOptions engine_options(const Pipeline& pl, topk::Mode mode,
                                 int threads) {
  topk::TopkOptions opt;
  opt.k = 4;
  opt.mode = mode;
  opt.threads = threads;
  opt.beam_cap = 16;
  opt.iterative.sta = pl.ckt.sta_options();
  return opt;
}

// Report JSON with the wall-clock-dependent fields normalized away; every
// other byte must match across thread counts.
std::string normalized_report_json(const Pipeline& pl, topk::TopkResult res,
                                   int k) {
  res.stats.threads = 0;
  res.stats.runtime_s = 0.0;
  res.stats.runtime_by_k.assign(res.stats.runtime_by_k.size(), 0.0);
  std::ostringstream out;
  io::write_topk_result_json(out, *pl.ckt.netlist, pl.ckt.parasitics, res, k);
  return out.str();
}

// Envelope-table hit and miss deltas over one engine run.
struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

topk::TopkResult run_counted(const Pipeline& pl, const topk::TopkOptions& opt,
                             CacheCounts* counts) {
  obs::Counter& hits = obs::registry().counter("noise.envelope_cache_hits");
  obs::Counter& misses = obs::registry().counter("noise.envelope_cache_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  topk::TopkResult res = pl.run(opt);
  counts->hits = hits.value() - hits_before;
  counts->misses = misses.value() - misses_before;
  return res;
}

TEST(ParallelEquivalence, EngineBitIdenticalAcrossThreadCounts) {
  Pipeline pl(circuit());
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    CacheCounts serial_counts;
    const topk::TopkResult serial =
        run_counted(pl, engine_options(pl, mode, 1), &serial_counts);
    EXPECT_EQ(serial.stats.threads, 1);
    const std::string serial_json =
        normalized_report_json(pl, serial, 4);
    for (int threads : {2, 8}) {
      CacheCounts counts;
      const topk::TopkResult par =
          run_counted(pl, engine_options(pl, mode, threads), &counts);
      EXPECT_EQ(par.stats.threads, threads);
#ifndef TKA_OBS_DISABLED
      // Each coupling side is built at most once, so the envelope table's
      // hit and miss counts do not depend on the schedule either.
      EXPECT_GT(counts.misses, 0u);
      EXPECT_EQ(counts.hits, serial_counts.hits) << threads;
      EXPECT_EQ(counts.misses, serial_counts.misses) << threads;
#endif
      // The chosen set, every per-cardinality winner and every delay are
      // bitwise equal — no tolerance.
      EXPECT_EQ(par.members, serial.members) << threads;
      EXPECT_EQ(par.set_by_k, serial.set_by_k) << threads;
      EXPECT_EQ(par.finalists_by_k, serial.finalists_by_k) << threads;
      EXPECT_EQ(par.estimated_delay_by_k, serial.estimated_delay_by_k)
          << threads;
      EXPECT_EQ(par.baseline_delay, serial.baseline_delay) << threads;
      EXPECT_EQ(par.estimated_delay, serial.estimated_delay) << threads;
      EXPECT_EQ(par.evaluated_delay, serial.evaluated_delay) << threads;
      // Work counters: the same candidates are generated and pruned.
      EXPECT_EQ(par.stats.sets_generated, serial.stats.sets_generated);
      EXPECT_EQ(par.stats.max_list_size, serial.stats.max_list_size);
      EXPECT_EQ(par.stats.prune.considered, serial.stats.prune.considered);
      EXPECT_EQ(par.stats.prune.removed_dominated,
                serial.stats.prune.removed_dominated);
      EXPECT_EQ(par.stats.prune.removed_beam, serial.stats.prune.removed_beam);
      // The whole report, byte for byte (runtime fields zeroed).
      EXPECT_EQ(normalized_report_json(pl, par, 4), serial_json) << threads;
    }
  }
}

TEST(ParallelEquivalence, FixpointBitIdenticalAcrossThreadCounts) {
  Pipeline pl(circuit(43));
  const noise::CouplingMask mask =
      noise::CouplingMask::all(pl.ckt.parasitics.num_couplings());
  noise::IterativeOptions it;
  it.sta = pl.ckt.sta_options();
  it.threads = 1;
  const noise::NoiseReport serial = noise::analyze_iterative(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc, mask, it);
  for (int threads : {4, 8}) {
    it.threads = threads;
    const noise::NoiseReport par = noise::analyze_iterative(
        *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc, mask, it);
    EXPECT_EQ(par.delay_noise, serial.delay_noise) << threads;
    EXPECT_EQ(par.noisy_delay, serial.noisy_delay) << threads;
    EXPECT_EQ(par.noiseless_delay, serial.noiseless_delay) << threads;
    EXPECT_EQ(par.iterations, serial.iterations) << threads;
    EXPECT_EQ(par.converged, serial.converged) << threads;
  }
}

TEST(ParallelEquivalence, BruteForceBitIdenticalAcrossThreadCounts) {
  gen::GeneratorParams p;
  p.name = "bf";
  p.num_gates = 12;
  p.target_couplings = 8;
  p.seed = 5;
  p.single_sink = true;
  Pipeline pl(gen::generate_circuit(p));

  topk::BruteForceOptions opt;
  opt.k = 2;
  opt.mode = topk::Mode::kAddition;
  opt.iterative.sta = pl.ckt.sta_options();
  opt.threads = 1;
  const auto serial = topk::brute_force_topk(
      *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc, opt);
  ASSERT_TRUE(serial.has_value());
  EXPECT_FALSE(serial->timed_out);
  for (int threads : {2, 8}) {
    opt.threads = threads;
    const auto par = topk::brute_force_topk(
        *pl.ckt.netlist, pl.ckt.parasitics, *pl.model, *pl.calc, opt);
    ASSERT_TRUE(par.has_value());
    EXPECT_EQ(par->members, serial->members) << threads;
    EXPECT_EQ(par->delay, serial->delay) << threads;
    EXPECT_EQ(par->subsets_evaluated, serial->subsets_evaluated) << threads;
  }
}

TEST(ParallelEquivalence, GeneratorArrivalsIdenticalAcrossThreadCounts) {
  gen::GeneratorParams p;
  p.name = "genpar";
  p.num_gates = 120;
  p.target_couplings = 200;
  p.seed = 99;
  p.threads = 1;
  const gen::GeneratedCircuit serial = gen::generate_circuit(p);
  p.threads = 8;
  const gen::GeneratedCircuit par = gen::generate_circuit(p);
  ASSERT_EQ(par.arrivals.size(), serial.arrivals.size());
  for (std::size_t n = 0; n < serial.arrivals.size(); ++n) {
    EXPECT_EQ(par.arrivals[n].eat, serial.arrivals[n].eat) << n;
    EXPECT_EQ(par.arrivals[n].lat, serial.arrivals[n].lat) << n;
  }
}

TEST(ParallelEquivalence, RngStreamsAreDecorrelated) {
  Rng base(123);
  Rng s0(123, 0);
  Rng s1(123, 1);
  // Stream 0 is not the plain generator, streams differ from each other,
  // and the same (seed, stream) pair reproduces exactly.
  EXPECT_NE(s0.next_u64(), base.next_u64());
  Rng s1b(123, 1);
  const std::uint64_t a = s1.next_u64();
  EXPECT_EQ(a, s1b.next_u64());
  Rng s0b(123, 0);
  EXPECT_NE(s0b.next_u64(), a);
}

}  // namespace
}  // namespace tka
