// Tests for the persistent AnalysisSession: a retaining session's cold run
// must match a one-shot session's, and incremental what_if() queries must
// be bit-identical to a one-shot run on the edited design — at every
// thread count — while reusing the warm envelope caches outside the edit
// cone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "fixtures.hpp"
#include "gen/circuit_generator.hpp"
#include "obs/obs.hpp"
#include "session/analysis_session.hpp"
#include "util/assert.hpp"

namespace tka::session {
namespace {

using test::Fixture;

// Sessions that serve what_if() keep every candidate layer.
const SessionOptions kRetain{.retain_candidates = true};

// The victim chain plus three aggressor chains of clearly distinct coupling
// strengths; long enough that an edit's cone is a small part of the design.
Fixture repair_fixture() {
  Fixture fx = test::make_parallel_chains(4, 4);
  test::couple(fx, "c0_n1", "c1_n1", 0.012);  // cap 0, strongest
  test::couple(fx, "c0_n2", "c2_n2", 0.006);  // cap 1
  test::couple(fx, "c0_n3", "c3_n3", 0.003);  // cap 2, weakest
  test::couple(fx, "c2_n1", "c3_n1", 0.004);  // cap 3, away from the victim
  return fx;
}

// Options over a test fixture or a generated circuit.
template <class Design>
topk::TopkOptions options(const Design& fx, int k, topk::Mode mode,
                          int threads = 0) {
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = mode;
  opt.threads = threads;
  opt.iterative.sta = fx.sta_options();
  return opt;
}

// Applies the session edit's equivalent directly to a design.
template <class Design>
void apply_to(Design& fx, const WhatIfEdit& edit) {
  for (layout::CapId cap : edit.zero_couplings) fx.parasitics.zero_coupling(cap);
  for (layout::CapId cap : edit.shield_couplings) {
    fx.parasitics.shield_coupling(cap);
  }
  for (const WhatIfEdit::Resize& rz : edit.resizes) {
    fx.netlist->resize_gate(rz.gate, rz.cell_index);
  }
}

// A one-shot run: a fresh session with the default (rolling) memory.
template <class Design>
topk::TopkResult cold_reference(const Design& fx,
                                const topk::TopkOptions& opt) {
  AnalysisSession s(*fx.netlist, fx.parasitics, {});
  return s.run(opt);
}

// Bit-identical on everything the identity contract covers (stats, being
// wall-clock and work-scoped, are deliberately out of scope).
void expect_identical(const topk::TopkResult& a, const topk::TopkResult& b) {
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.baseline_delay, b.baseline_delay);
  EXPECT_EQ(a.reference_delay, b.reference_delay);
  EXPECT_EQ(a.estimated_delay, b.estimated_delay);
  EXPECT_EQ(a.evaluated_delay, b.evaluated_delay);
  EXPECT_EQ(a.set_by_k, b.set_by_k);
  EXPECT_EQ(a.estimated_delay_by_k, b.estimated_delay_by_k);
  EXPECT_EQ(a.finalists_by_k, b.finalists_by_k);
}

TEST(Session, ColdRunMatchesOneShotSession) {
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    Fixture fx = repair_fixture();
    const topk::TopkOptions opt = options(fx, 3, mode);
    const topk::TopkResult one_shot = cold_reference(fx, opt);

    Fixture fx2 = repair_fixture();
    AnalysisSession s(*fx2.netlist, fx2.parasitics, {}, kRetain);
    expect_identical(s.run(opt), one_shot);
    EXPECT_TRUE(s.primed());
  }
}

TEST(Session, WhatIfZeroCouplingMatchesColdRun) {
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    Fixture fx = repair_fixture();
    const topk::TopkOptions opt = options(fx, 2, mode);
    AnalysisSession s(*fx.netlist, fx.parasitics, {}, kRetain);
    const topk::TopkResult cold = s.run(opt);

    // Repair the strongest coupling the cold run found.
    WhatIfEdit edit;
    ASSERT_FALSE(cold.members.empty());
    edit.zero_couplings = {cold.members.front()};
    const topk::TopkResult warm = s.what_if(edit);

    Fixture edited = repair_fixture();
    apply_to(edited, edit);
    expect_identical(warm, cold_reference(edited, opt));
  }
}

TEST(Session, WhatIfShieldAndResizeMatchesColdRun) {
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    Fixture fx = repair_fixture();
    const net::CellLibrary& lib = net::CellLibrary::default_library();
    const topk::TopkOptions opt = options(fx, 2, mode);
    AnalysisSession s(*fx.netlist, fx.parasitics, {}, kRetain);
    s.run(opt);

    WhatIfEdit edit;
    edit.shield_couplings = {1};
    // Upsize the victim's first driver to the stronger drive variant.
    const net::NetId vn = fx.netlist->net_by_name("c0_n0");
    edit.resizes = {{fx.netlist->net(vn).driver, lib.index_of("BUFX2")}};
    const topk::TopkResult warm = s.what_if(edit);

    Fixture edited = repair_fixture();
    apply_to(edited, edit);
    expect_identical(warm, cold_reference(edited, opt));
  }
}

TEST(Session, SequentialEditsStayIdentical) {
  Fixture fx = repair_fixture();
  const topk::TopkOptions opt = options(fx, 2, topk::Mode::kElimination);
  AnalysisSession s(*fx.netlist, fx.parasitics, {}, kRetain);
  s.run(opt);

  Fixture edited = repair_fixture();
  // A three-step repair loop: each edit builds on the previous design state.
  const WhatIfEdit steps[] = {{{0}, {}, {}}, {{}, {2}, {}}, {{3}, {}, {}}};
  for (const WhatIfEdit& edit : steps) {
    const topk::TopkResult warm = s.what_if(edit);
    apply_to(edited, edit);
    expect_identical(warm, cold_reference(edited, opt));
  }
}

// Forces one index per parallel_for chunk (TKA_TASK_GRAIN=1), so the
// parallel_for loops inside a query (the baseline's per-victim passes, the
// fixpoint) run under maximal steal traffic, as test_task_graph's
// GrainGuard does for task graphs. The sweep graph is one task per victim
// at every grain, so the guard does not shape the warm sweep itself.
struct GrainGuard {
  GrainGuard() { setenv("TKA_TASK_GRAIN", "1", 1); }
  ~GrainGuard() { unsetenv("TKA_TASK_GRAIN"); }
};

// The 40-gate generated circuit. Zeroing its cold run's top member
// activates couplings to lower-level partners, so warm elimination sweeps
// on it take partner edges and same-sweep partner marks.
gen::GeneratorParams generated_params() {
  gen::GeneratorParams params;
  params.name = "session_gen";
  params.num_gates = 40;
  params.target_couplings = 16;
  params.seed = 7;
  return params;
}

// Deterministic work a warm query must repeat exactly at every thread count
// (none to read when observability is compiled out).
std::vector<std::uint64_t> warm_work_counters() {
  std::vector<std::uint64_t> values;
#ifndef TKA_OBS_DISABLED
  for (const char* name :
       {"topk.sets_generated", "topk.surviving_sets", "pwl.merge_points"}) {
    values.push_back(obs::registry().counter(name).value());
  }
#endif
  return values;
}

// At threads 1, 2 and 8, a session's what_if(edit) after a cold run on
// `design` must equal a one-shot run on `edited` (the design with the edit
// applied), with the same warm work counters at every thread count.
// Sessions copy the design, so one instance serves every session.
template <class Design>
void expect_warm_identical_across_threads(const Design& design,
                                          const Design& edited,
                                          const WhatIfEdit& edit,
                                          topk::Mode mode) {
  const topk::TopkResult reference =
      cold_reference(edited, options(edited, 2, mode, 1));
  std::vector<std::uint64_t> serial_work;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    AnalysisSession s(*design.netlist, design.parasitics, {}, kRetain);
    s.run(options(design, 2, mode, threads));
    const std::vector<std::uint64_t> before = warm_work_counters();
    expect_identical(s.what_if(edit), reference);
    std::vector<std::uint64_t> work = warm_work_counters();
    for (std::size_t c = 0; c < work.size(); ++c) work[c] -= before[c];
    if (threads == 1) {
      serial_work = work;
    } else {
      EXPECT_EQ(work, serial_work);
    }
  }
}

TEST(Session, WhatIfIdenticalAcrossThreadCounts) {
  for (bool steal_stress : {false, true}) {
    std::optional<GrainGuard> grain;
    if (steal_stress) grain.emplace();
    for (topk::Mode mode :
         {topk::Mode::kAddition, topk::Mode::kElimination}) {
      WhatIfEdit edit;
      edit.zero_couplings = {0};
      const Fixture fx = repair_fixture();
      Fixture fx_edited = repair_fixture();
      apply_to(fx_edited, edit);
      expect_warm_identical_across_threads(fx, fx_edited, edit, mode);

      const gen::GeneratedCircuit gc = gen::generate_circuit(generated_params());
      const topk::TopkResult cold = cold_reference(gc, options(gc, 2, mode, 1));
      ASSERT_FALSE(cold.members.empty());
      edit.zero_couplings = {cold.members.front()};
      gen::GeneratedCircuit gc_edited = gen::generate_circuit(generated_params());
      apply_to(gc_edited, edit);
      expect_warm_identical_across_threads(gc, gc_edited, edit, mode);
    }
  }
}

TEST(Session, WhatIfOnGeneratedCircuitMatchesColdRun) {
  const gen::GeneratorParams params = generated_params();
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    gen::GeneratedCircuit a = gen::generate_circuit(params);
    topk::TopkOptions opt;
    opt.k = 2;
    opt.mode = mode;
    opt.iterative.sta = a.sta_options();

    AnalysisSession s(*a.netlist, a.parasitics, {}, kRetain);
    const topk::TopkResult cold = s.run(opt);
    ASSERT_FALSE(cold.members.empty());
    WhatIfEdit edit;
    edit.zero_couplings = {cold.members.front()};
    const topk::TopkResult warm = s.what_if(edit);

    gen::GeneratedCircuit b = gen::generate_circuit(params);
    opt.iterative.sta = b.sta_options();
    for (layout::CapId cap : edit.zero_couplings) b.parasitics.zero_coupling(cap);
    AnalysisSession one_shot(*b.netlist, b.parasitics, {});
    expect_identical(warm, one_shot.run(opt));
  }
}

#ifndef TKA_OBS_DISABLED
TEST(Session, WhatIfReusesEnvelopeCacheOutsideEditCone) {
  Fixture fx = repair_fixture();
  const topk::TopkOptions opt = options(fx, 2, topk::Mode::kElimination, 1);
  obs::Counter& misses = obs::registry().counter("noise.envelope_cache_misses");
  obs::Counter& invalidated =
      obs::registry().counter("noise.envelope_cache_invalidated");

  AnalysisSession s(*fx.netlist, fx.parasitics, {}, kRetain);
  const std::uint64_t misses_before_cold = misses.value();
  s.run(opt);
  const std::uint64_t cold_misses = misses.value() - misses_before_cold;

  WhatIfEdit edit;
  edit.zero_couplings = {3};  // the coupling far from the victim chain
  const std::uint64_t misses_before_warm = misses.value();
  const std::uint64_t invalidated_before = invalidated.value();
  s.what_if(edit);
  const std::uint64_t warm_misses = misses.value() - misses_before_warm;

  // The edit cone touches only part of the design: the warm query must
  // invalidate something, but recompute strictly fewer envelopes than the
  // cold priming run did.
  EXPECT_GT(invalidated.value(), invalidated_before);
  EXPECT_GT(cold_misses, 0u);
  EXPECT_LT(warm_misses, cold_misses);
  EXPECT_GT(obs::registry().counter("topk.whatif_runs").value(), 0u);
  EXPECT_GT(obs::registry().counter("session.whatif_edits").value(), 0u);
}
#endif

TEST(Session, WhatIfPreconditionsAreChecked) {
  Fixture fx = repair_fixture();
  WhatIfEdit edit;
  edit.zero_couplings = {0};

  // Unprimed sessions have no baseline to refresh.
  AnalysisSession unprimed(*fx.netlist, fx.parasitics, {}, kRetain);
  EXPECT_THROW(unprimed.what_if(edit), Error);

  // The default, retain_candidates=false, drops the candidate layers
  // what_if needs.
  Fixture fx2 = repair_fixture();
  AnalysisSession rolling(*fx2.netlist, fx2.parasitics, {});
  rolling.run(options(fx2, 2, topk::Mode::kAddition));
  EXPECT_THROW(rolling.what_if(edit), Error);
}

}  // namespace
}  // namespace tka::session
