// Tests for the persistent AnalysisSession: a retaining session's cold run
// must match a one-shot session's, and incremental what_if() queries must
// be bit-identical to a one-shot run on the edited design — at every
// thread count — while reusing the warm envelope caches outside the edit
// cone. BaselineStage's warm refresh is also checked on its own against a
// cold prime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <vector>

#include "fixtures.hpp"
#include "gen/circuit_generator.hpp"
#include "noise/coupling_calc.hpp"
#include "obs/obs.hpp"
#include "server/protocol.hpp"
#include "session/analysis_session.hpp"
#include "sta/analyzer.hpp"
#include "topk/stages/baseline_stage.hpp"
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

// Deterministic work a warm query must repeat exactly at every thread count.
std::vector<std::uint64_t> warm_work_counters() {
  std::vector<std::uint64_t> values;
  for (const char* name :
       {"topk.sets_generated", "topk.surviving_sets", "pwl.merge_points"}) {
    values.push_back(obs::registry().counter(name).value());
  }
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

// A warm session's answer at k must equal a fresh one-shot session's on the
// same design state and k: every field the identity contract covers, and
// the served render.
template <class Design>
void expect_one_shot_answer(const topk::TopkResult& got, const Design& design,
                            int k, topk::Mode mode, int threads) {
  SCOPED_TRACE(testing::Message() << "k " << k);
  const topk::TopkResult want =
      cold_reference(design, options(design, k, mode, threads));
  expect_identical(got, want);
  EXPECT_EQ(server::render_topk_result(*design.netlist, design.parasitics,
                                       got, k),
            server::render_topk_result(*design.netlist, design.parasitics,
                                       want, k));
}

// A session primed at K = 3 answers any k on its current design: k <= K
// from its memo, k = 5 by sweeping cardinalities 4 and 5 on top of it, and
// after an edit or an ordered batch of edits at a k of the caller's
// choosing. In both modes at threads 1 and 4.
TEST(Session, AnswersAnyKOnItsCurrentDesign) {
  const gen::GeneratorParams params = generated_params();
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode)
                                      << " threads " << threads);
      gen::GeneratedCircuit design = gen::generate_circuit(params);
      AnalysisSession s(*design.netlist, design.parasitics, {}, kRetain);
      const topk::TopkResult primed = s.run(options(design, 3, mode, threads));
      expect_one_shot_answer(primed, design, 3, mode, threads);
      ASSERT_GE(primed.members.size(), 3u);
      for (int k : {2, 1, 3, 5}) {
        expect_one_shot_answer(s.what_if({}, k), design, k, mode, threads);
      }

      WhatIfEdit e;
      e.zero_couplings = {primed.members[0]};
      apply_to(design, e);
      expect_one_shot_answer(s.what_if({&e, 1}, 2), design, 2, mode, threads);
      expect_one_shot_answer(s.what_if({}, 5), design, 5, mode, threads);

      WhatIfEdit e1;
      e1.shield_couplings = {primed.members[1]};
      WhatIfEdit e2;
      e2.zero_couplings = {primed.members[2]};
      const WhatIfEdit batch[] = {e1, e2};
      apply_to(design, e1);
      apply_to(design, e2);
      expect_one_shot_answer(s.what_if(batch, 4), design, 4, mode, threads);
    }
  }
}

// A batch applies its edits in order. Zeroing a coupling and then shielding
// it leaves the ground load as it was; shielding it first folds its value
// into both endpoints' ground load. Each order must equal a cold run on the
// design edited in that order, and the two answers must differ. A batch
// holding one bad edit throws and changes nothing: the next answer still
// equals a one-shot run.
TEST(Session, WhatIfBatchAppliesEditsInOrder) {
  const gen::GeneratorParams params = generated_params();
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const gen::GeneratedCircuit gc = gen::generate_circuit(params);
    const topk::TopkOptions opt = options(gc, 2, mode, 1);
    const topk::TopkResult cold = cold_reference(gc, opt);
    ASSERT_GE(cold.members.size(), 2u);
    WhatIfEdit zero;
    zero.zero_couplings = {cold.members[0]};
    WhatIfEdit shield;
    shield.shield_couplings = {cold.members[0]};
    const WhatIfEdit orders[2][2] = {{zero, shield}, {shield, zero}};
    std::string renders[2];
    for (int o = 0; o < 2; ++o) {
      SCOPED_TRACE(o);
      AnalysisSession s(*gc.netlist, gc.parasitics, {}, kRetain);
      s.run(opt);
      gen::GeneratedCircuit edited = gen::generate_circuit(params);
      for (const WhatIfEdit& edit : orders[o]) apply_to(edited, edit);
      const topk::TopkResult got = s.what_if(orders[o], 2);
      expect_identical(got, cold_reference(edited, opt));
      renders[o] = server::render_topk_result(*edited.netlist,
                                              edited.parasitics, got, 2);

      WhatIfEdit good;
      good.zero_couplings = {cold.members[1]};
      WhatIfEdit bad;
      bad.resizes = {{0, lib.size()}};
      const WhatIfEdit bad_batch[] = {good, bad};
      EXPECT_THROW(s.what_if(bad_batch, 3), Error);
      expect_one_shot_answer(s.what_if({}, 3), edited, 3, mode, 1);
    }
    EXPECT_NE(renders[0], renders[1]);
  }
}

// Warm queries under the slack gate and the primary cap: a refresh must
// flip slack-gate verdicts and re-truncate active lists exactly as a cold
// run does. A repair loop zeroes, shields, then zeroes again the current
// top member; every step must equal a one-shot run on the edited design.
TEST(Session, WhatIfUnderSlackGateAndPrimaryCap) {
  gen::GeneratorParams params;
  params.name = "session_gated";
  params.num_gates = 120;
  params.target_couplings = 300;
  params.seed = 7;  // its warm refreshes flip slack-gate verdicts
  const gen::GeneratedCircuit gc = gen::generate_circuit(params);
  const sta::DelayModel model(*gc.netlist, gc.parasitics);
  const double noiseless =
      sta::run_sta(*gc.netlist, model, gc.sta_options()).max_lat;
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    // The edits and references come from the serial pass; the 4-thread
    // pass replays them.
    std::vector<WhatIfEdit> steps;
    std::vector<topk::TopkResult> references;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      topk::TopkOptions opt = options(gc, 3, mode, threads);
      opt.beam_cap = 12;
      opt.max_primary_per_victim = 3;
      opt.victim_slack_threshold = 0.1 * noiseless;
      AnalysisSession s(*gc.netlist, gc.parasitics, {}, kRetain);
      topk::TopkResult result = s.run(opt);
      gen::GeneratedCircuit edited = gen::generate_circuit(params);
      for (std::size_t step = 0; step < 3; ++step) {
        if (threads == 1) {
          ASSERT_FALSE(result.members.empty());
          WhatIfEdit edit;
          (step == 1 ? edit.shield_couplings : edit.zero_couplings) = {
              result.members.front()};
          apply_to(edited, edit);
          steps.push_back(edit);
          references.push_back(cold_reference(edited, opt));
        }
        result = s.what_if(steps[step]);
        expect_identical(result, references[step]);
      }
    }
  }
}

// A generated design with the delay model and calculator BaselineStage
// reads. Not movable: the model and calculator point into the circuit.
struct StageDesign {
  gen::GeneratedCircuit gc;
  sta::DelayModel model;
  noise::AnalyticCouplingCalculator calc;
  explicit StageDesign(const gen::GeneratorParams& params)
      : gc(gen::generate_circuit(params)),
        model(*gc.netlist, gc.parasitics),
        calc(gc.parasitics, model) {}
  StageDesign(const StageDesign&) = delete;
  topk::stages::DesignRef ref() const {
    return {gc.netlist.get(), &gc.parasitics, &model, &calc};
  }
};

// The per-victim baseline state enumeration reads: active couplings (false
// aggressors dropped, cut to the primary cap), local upper bounds,
// slack-gate verdicts and dominance intervals.
void expect_same_baseline(const topk::stages::BaselineState& got,
                          const topk::stages::BaselineState& want) {
  EXPECT_EQ(got.active_caps, want.active_caps);
  EXPECT_EQ(got.local_ub, want.local_ub);
  EXPECT_EQ(got.full_victim, want.full_victim);
  ASSERT_EQ(got.iv.size(), want.iv.size());
  for (std::size_t v = 0; v < got.iv.size(); ++v) {
    EXPECT_EQ(got.iv[v].lo, want.iv[v].lo) << "net " << v;
    EXPECT_EQ(got.iv[v].hi, want.iv[v].hi) << "net " << v;
  }
}

// After each of five zero/shield edits, a warm BaselineStage::refresh must
// leave the state a cold prime builds on an independently edited copy, in
// both modes at threads 1 and 4; the 4-thread cold prime must equal the
// 1-thread one. The region victims' false aggressors are decided in the
// same pass as the rest of their state.
TEST(BaselineStage, RefreshMatchesPrimeOnEditedDesign) {
  using topk::stages::BaselineStage;
  using topk::stages::BaselineState;
  gen::GeneratorParams params;
  params.name = "baseline_stage";
  params.num_gates = 120;
  params.target_couplings = 300;
  params.seed = 7;
  const gen::GeneratedCircuit gc = gen::generate_circuit(params);
  const double noiseless =
      sta::run_sta(*gc.netlist, sta::DelayModel(*gc.netlist, gc.parasitics),
                   gc.sta_options())
          .max_lat;
  const layout::CapId edits[] = {3, 41, 97, 150, 211};
  for (topk::Mode mode : {topk::Mode::kAddition, topk::Mode::kElimination}) {
    auto stage_options = [&](const StageDesign& d, int threads) {
      topk::TopkOptions opt = options(d.gc, 3, mode, threads);
      opt.max_primary_per_victim = 3;
      opt.victim_slack_threshold = 0.1 * noiseless;
      opt.iterative.threads = threads;
      return opt;
    };
    auto prime = [&](const StageDesign& d, int threads, BaselineState* state) {
      const topk::TopkOptions opt = stage_options(d, threads);
      BaselineStage::prime(d.ref(), opt, opt.iterative, state);
    };
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode)
                                      << " threads " << threads);
      StageDesign warm(params);
      BaselineState state;
      prime(warm, threads, &state);
      if (threads > 1) {
        StageDesign serial_design(params);
        BaselineState serial;
        prime(serial_design, 1, &serial);
        expect_same_baseline(state, serial);
      }
      StageDesign cold(params);
      for (std::size_t e = 0; e < std::size(edits); ++e) {
        SCOPED_TRACE(testing::Message() << "edit " << e);
        const layout::CapId cap = edits[e];
        for (StageDesign* d : {&warm, &cold}) {
          if (e % 2 == 0) {
            d->gc.parasitics.zero_coupling(cap);
          } else {
            d->gc.parasitics.shield_coupling(cap);
          }
        }
        const layout::CouplingCap& cc = warm.gc.parasitics.coupling(cap);
        std::vector<net::NetId> nets = {cc.net_a, cc.net_b};
        std::sort(nets.begin(), nets.end());
        const layout::CapId caps[] = {cap};
        std::vector<net::NetId> seeds;
        BaselineStage::refresh(warm.ref(), stage_options(warm, threads), nets,
                               caps, &state, &seeds);
        BaselineState want;
        prime(cold, threads, &want);
        expect_same_baseline(state, want);
      }
    }
  }
}

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

  // An edit that fails check_edit is refused whole: its zero edit must not
  // reach the design, so the next edit still matches a one-shot run.
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  Fixture fx3 = repair_fixture();
  const topk::TopkOptions opt = options(fx3, 2, topk::Mode::kElimination);
  AnalysisSession s(*fx3.netlist, fx3.parasitics, {}, kRetain);
  s.run(opt);
  WhatIfEdit mixed;
  mixed.zero_couplings = {0};
  mixed.resizes = {{0, lib.index_of("NAND2X1")}};  // gate 0 is a buffer
  EXPECT_THROW(s.what_if(mixed), Error);
  WhatIfEdit out_of_range;
  out_of_range.resizes = {{0, lib.size()}};
  EXPECT_THROW(s.what_if(out_of_range), Error);
  edit.zero_couplings = {1};
  Fixture edited = repair_fixture();
  apply_to(edited, edit);
  expect_identical(s.what_if(edit), cold_reference(edited, opt));
}

#if defined(__GLIBC__) && defined(__LP64__)
// glibc's per-thread malloc cache serves requests up to 1032 bytes, and a
// one-shot query's setup time includes allocating the session: a
// 1112-byte session measured 11-17% slower perfbench setup. A member that
// crosses the line fails here instead of silently moving that metric;
// keep bulk state behind a pointer.
TEST(Session, ObjectFitsGlibcThreadCache) {
  EXPECT_LE(sizeof(AnalysisSession), 1024u);
}
#endif

}  // namespace
}  // namespace tka::session
