#include "session/analysis_session.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "net/topo.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/telemetry.hpp"
#include "session/design_snapshot.hpp"
#include "wave/point_store.hpp"
#include "topk/stages/baseline_stage.hpp"
#include "topk/stages/candidate_stage.hpp"
#include "topk/stages/evaluate_stage.hpp"
#include "topk/stages/prune_stage.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace tka::session {

using topk::stages::BaselineStage;
using topk::stages::BestSnap;
using topk::stages::CandidateStage;
using topk::stages::EvaluateStage;
using topk::stages::PruneStage;
using topk::stages::QueryContext;

namespace {

// Per-thread waveform-pool bytes left parked after the per-query trim: a
// warm set large enough that the next query's small merges hit the cache
// immediately, small enough that idle shard workers stay lean.
constexpr std::size_t kPoolKeepBytesPerThread = 256u << 10;

// The sweep graph: one task per net (task index == net id) and one edge
// u -> v per current-sweep input u of victim v (QueryContext::
// partner_is_input states the rule). Built per query from the baseline's
// active caps, which a what_if refresh can change. Duplicates (a fanin that
// is also a partner) are deduplicated by the graph itself.
runtime::TaskGraph build_sweep_graph(const QueryContext& ctx) {
  const net::Netlist& nl = *ctx.design.nl;
  runtime::TaskGraph graph(nl.num_nets());
  for (net::NetId v = 0; v < nl.num_nets(); ++v) {
    const net::Net& n = nl.net(v);
    if (n.driver != net::kInvalidGate) {
      for (net::NetId u : nl.gate(n.driver).inputs) graph.add_edge(u, v);
    }
    for (layout::CapId cap : ctx.base->active_caps[v]) {
      const net::NetId a = ctx.design.par->coupling(cap).other(v);
      if (ctx.partner_is_input(a, v)) graph.add_edge(a, v);
    }
  }
  return graph;
}

/// Relaxed flag store for marks set inside sweep tasks: several tasks may
/// mark the same reader, and nothing else is shared through the flag.
void set_flag(std::vector<char>& flags, std::size_t i) {
  std::atomic_ref<char>(flags[i]).store(1, std::memory_order_relaxed);
}

}  // namespace

AnalysisSession::AnalysisSession(net::Netlist nl, layout::Parasitics par,
                                 const sta::DelayModelOptions& model_options,
                                 SessionOptions options)
    : nl_(std::move(nl)),
      par_(std::move(par)),
      model_(nl_, par_, model_options),
      calc_(par_, model_),
      sopt_(options) {}

AnalysisSession::~AnalysisSession() = default;

topk::TopkResult AnalysisSession::run(const topk::TopkOptions& options) {
  TKA_CHECK(options.k >= 1, "run: k must be at least 1");
  opt_ = options;
  opt_.threads = runtime::resolve_threads(opt_.threads);
  // The fixpoints the pipeline launches (baseline, re-evaluation) inherit
  // the run's worker count unless the caller pinned their own.
  if (opt_.iterative.threads == 0) opt_.iterative.threads = opt_.threads;
  primed_ = false;
  topk::TopkResult result =
      query(/*cold=*/true, nullptr, static_cast<std::size_t>(opt_.k));
  primed_ = true;
  return result;
}

topk::TopkResult AnalysisSession::what_if(const WhatIfEdit& edit) {
  return what_if(std::span<const WhatIfEdit>(&edit, 1), opt_.k);
}

topk::TopkResult AnalysisSession::what_if(std::span<const WhatIfEdit> edits,
                                          int k) {
  TKA_CHECK(primed_, "what_if requires a primed session (call run() first)");
  TKA_CHECK(sopt_.retain_candidates,
            "what_if requires SessionOptions::retain_candidates");
  TKA_CHECK(k >= 1, "what_if: k must be at least 1");
  // Every edit is checked before any applies, so a refused batch leaves the
  // design untouched. An earlier edit cannot change a later one's verdict:
  // edits keep every id range, and a resize keeps the gate's function.
  std::size_t edit_count = 0;
  for (const WhatIfEdit& edit : edits) {
    std::string why;
    TKA_CHECK(check_edit(nl_, par_, edit, &why), "what_if: " + why);
    edit_count += edit.zero_couplings.size() + edit.shield_couplings.size() +
                  edit.resizes.size();
  }
  obs::registry().counter("session.whatif_edits").add(edit_count);
  // Until the query below completes, the warm state lags the design.
  primed_ = false;

  // Edits apply in order, since they do not commute (zeroing a coupling and
  // then shielding it leaves a different ground load than the reverse).
  // The batch's electrical footprint is the union of theirs: the couplings
  // whose value changed and the nets whose local loads or drive changed (a
  // resized gate's output drive and its inputs' pin loads).
  std::vector<net::NetId> edit_nets;
  std::vector<layout::CapId> edit_caps;
  for (const WhatIfEdit& edit : edits) {
    apply_edit_to_design(nl_, par_, edit);
    for (const std::vector<layout::CapId>* caps :
         {&edit.zero_couplings, &edit.shield_couplings}) {
      for (layout::CapId cap : *caps) {
        edit_caps.push_back(cap);
        edit_nets.push_back(par_.coupling(cap).net_a);
        edit_nets.push_back(par_.coupling(cap).net_b);
      }
    }
    for (const WhatIfEdit::Resize& rz : edit.resizes) {
      const net::Gate& g = nl_.gate(rz.gate);
      edit_nets.push_back(g.output);
      edit_nets.insert(edit_nets.end(), g.inputs.begin(), g.inputs.end());
    }
  }
  std::sort(edit_nets.begin(), edit_nets.end());
  edit_nets.erase(std::unique(edit_nets.begin(), edit_nets.end()),
                  edit_nets.end());
  std::sort(edit_caps.begin(), edit_caps.end());
  edit_caps.erase(std::unique(edit_caps.begin(), edit_caps.end()),
                  edit_caps.end());

  // Re-converge the baseline incrementally and collect the seed victims.
  std::vector<net::NetId> seeds;
  {
    obs::ScopedSpan stage_span("topk.stage.baseline");
    if (!edits.empty()) {
      BaselineStage::refresh(design(), opt_, edit_nets, edit_caps, &base_,
                             &seeds);
    }
    if (opt_.mode == topk::Mode::kAddition && opt_.reevaluate) {
      // Addition evaluates candidate sets against the mask=none fixpoint;
      // keep a primed one warm for the re-ranking stage.
      const noise::CouplingMask none =
          noise::CouplingMask::none(par_.num_couplings());
      if (fp_none_ == nullptr) {
        fp_none_ = std::make_unique<noise::IncrementalFixpoint>(
            nl_, par_, model_, calc_, opt_.iterative);
        fp_none_->recompute(none);
      } else if (!edits.empty()) {
        fp_none_->refresh(edit_nets, edit_caps, none);
      }
    }
  }

  if (!edits.empty()) {
    log::info() << "session: what-if batch of " << edits.size() << " edits ("
                << edit_caps.size() << " couplings) -> " << seeds.size()
                << " of " << nl_.num_nets() << " seed victims";
  }
  topk::TopkResult result = query(/*cold=*/false,
                                  edits.empty() ? nullptr : &seeds,
                                  static_cast<std::size_t>(k));
  primed_ = true;
  return result;
}

namespace {

/// Exact (bitwise) equality of a rebuilt candidate list against its
/// memoized predecessor — the trigger for change-driven dirtiness. Any
/// tolerance here would let a drifted value hide behind a stale memo and
/// break the bit-identity contract, so none is applied.
bool lists_equal(std::span<const topk::CandidateSet> a,
                 std::span<const topk::CandidateSet> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].members != b[i].members ||
        !a[i].envelope.same_points(b[i].envelope)) {
      return false;
    }
  }
  return true;
}

}  // namespace

double AnalysisSession::evaluate_members(
    std::span<const layout::CapId> members,
    const noise::IterativeOptions& iterative, bool warm) {
  const bool addition = (opt_.mode == topk::Mode::kAddition);
  if (warm) {
    const noise::IncrementalFixpoint* base_fp =
        addition ? fp_none_.get() : base_.fixpoint.get();
    if (base_fp != nullptr && base_fp->primed()) {
      // Clone the primed fixpoint and re-converge the clone under the
      // perturbed mask: bit-identical to the cold analyze_iterative call,
      // at a fraction of the iterations.
      noise::IncrementalFixpoint fp = *base_fp;
      fp.set_threads(iterative.threads);
      noise::CouplingMask mask =
          addition ? noise::CouplingMask::none(par_.num_couplings())
                   : noise::CouplingMask::all(par_.num_couplings());
      for (layout::CapId id : members) mask.set(id, addition);
      fp.refresh({}, members, mask);
      return fp.report().noisy_delay;
    }
  }
  return BaselineStage::masked_delay(design(), members, opt_.mode, iterative);
}

topk::TopkResult AnalysisSession::query(bool cold,
                                        const std::vector<net::NetId>* seeds,
                                        std::size_t k) {
  const topk::TopkOptions& opt = opt_;
  TKA_ASSERT(k >= 1);
  // All run timing below comes from the obs monotonic clock so TopkStats,
  // span durations and registry values agree with each other.
  const std::int64_t run_start_ns = obs::now_ns();
  const int threads = opt.threads;
  const noise::IterativeOptions& iter_opt = opt.iterative;
  obs::ScopedSpan run_span(cold ? "topk.run" : "topk.whatif");
  run_span.arg("k", static_cast<std::int64_t>(k))
      .arg("mode",
           opt.mode == topk::Mode::kAddition ? "addition" : "elimination")
      .arg("threads", static_cast<std::int64_t>(threads));

  // Per-query metric handles, hoisted out of the hot loops. TopkStats
  // counter fields are populated from registry deltas at the end.
  obs::MetricsRegistry& reg = obs::registry();
  obs::Counter& c_sets = reg.counter("topk.sets_generated");
  obs::Counter& c_dominance = reg.counter("topk.dominance_pruned");
  obs::Counter& c_beam = reg.counter("topk.beam_capped");
  obs::Counter& c_gen_cap = reg.counter("topk.generation_capped");
  obs::Counter& c_surviving = reg.counter("topk.surviving_sets");
  obs::Counter& c_sweep_graphs = reg.counter("topk.sweep_graph_runs");
  obs::Histogram& h_ilist = reg.histogram("topk.ilist_size", 1.0, 65536.0);
  reg.counter(cold ? "topk.runs" : "topk.whatif_runs").add(1);
  const std::uint64_t sets_before = c_sets.value();
  // Query-scoped runtime attribution: lane deltas over this query feed the
  // runtime.query.* gauges at the end.
  const std::vector<runtime::LaneCounters> lanes_before =
      runtime::lane_snapshot();

  topk::TopkResult result;
  result.mode = opt.mode;

  const net::Netlist& nl = nl_;
  const std::size_t num_nets = nl.num_nets();
  const std::size_t num_caps = par_.num_couplings();
  const bool addition = (opt.mode == topk::Mode::kAddition);

  if (cold) {
    log::info() << "topk: start k=" << k << " mode="
                << (addition ? "addition" : "elimination")
                << " nets=" << num_nets << " couplings=" << num_caps;
    base_ = topk::stages::BaselineState{};
    {
      obs::ScopedSpan stage_span("topk.stage.baseline");
      BaselineStage::prime(design(), opt, iter_opt, &base_);
    }
    memo_ = topk::stages::SweepMemo{};
    memo_.retain = sopt_.retain_candidates;
    fp_none_.reset();
  }
  // The cardinalities this query sweeps: a warm query re-enumerates the
  // memo's 1..warm_to from its seeds, and any query sweeps the ones above
  // the memo's, up to k, with cold tasks (every victim rebuilt). Their
  // layers are allocated as the sweep reaches them.
  const std::size_t warm_to = seeds != nullptr ? memo_.k() : 0;
  const std::size_t first = warm_to > 0 ? 1 : memo_.k() + 1;
  const std::size_t last = std::max(warm_to, k);
  if (k > memo_.k()) {
    memo_.lists.resize(k);
    if (memo_.retain && !addition) memo_.sweep0.resize(k);
    memo_.winner_score.resize(num_nets);
    memo_.winner_members.resize(num_nets);
    for (std::size_t v = 0; v < num_nets; ++v) {
      memo_.winner_score[v].resize(k + 1, -1.0);
      memo_.winner_members[v].resize(k + 1);
    }
  }

  const noise::NoiseReport& all_rep = base_.fixpoint->report();
  if (addition) {
    result.baseline_delay = all_rep.noiseless_delay;
    result.reference_delay = all_rep.noisy_delay;
  } else {
    result.baseline_delay = all_rep.noisy_delay;
    result.reference_delay = all_rep.noiseless_delay;
  }

  // Elimination's higher-order snapshots, double-buffered (QueryContext::
  // ho_of): each sweep publishes into ho_snap while non-input partners are
  // read from ho_prev, the previous sweep's buffer, swapped in after each
  // drain.
  std::vector<BestSnap> ho_snap(addition ? 0 : num_nets);
  std::vector<BestSnap> ho_prev(addition ? 0 : num_nets);
  const std::vector<int> levels = net::net_levels(nl);

  QueryContext ctx;
  ctx.design = design();
  ctx.opt = &opt;
  ctx.iter_opt = iter_opt;
  ctx.threads = threads;
  ctx.addition = addition;
  ctx.base = &base_;
  ctx.ho_snap = &ho_snap;
  ctx.ho_prev = &ho_prev;
  ctx.levels = levels;
  ctx.memo = &memo_;
  ctx.result = &result;
  const bool warm_eval = !cold && sopt_.retain_candidates;
  ctx.evaluate = [this, warm_eval](std::span<const layout::CapId> members,
                                   const noise::IterativeOptions& iterative) {
    return evaluate_members(members, iterative, warm_eval);
  };
  ctx.c_sets = &c_sets;
  ctx.c_gen_cap = &c_gen_cap;
  ctx.c_surviving = &c_surviving;
  ctx.h_ilist = &h_ilist;

  runtime::TaskGraph graph = build_sweep_graph(ctx);
  EvaluateStage evaluate(&ctx);

  // Change-driven dirtiness (warm cardinalities). `need` marks victims
  // whose enumeration inputs may have moved; it is seeded from the baseline
  // refresh and grows while the sweeps run, sticky across cardinalities
  // (cross-cardinality reads — own prior layer, fanin winner trails —
  // mean a victim stays interesting once any input ever changed this
  // query). `rebuilt` flags, per cardinality, the victims re-enumerated
  // at sweep 0: exactly what sets_of / publish_one need to pick between
  // the live list and the memoized sweep-0 snapshot.
  std::vector<char> need;
  std::vector<char> next_need;
  std::vector<char> rebuilt;
  std::vector<std::vector<topk::CandidateSet>> prev_final;
  if (warm_to > 0) {
    need.assign(num_nets, 0);
    for (net::NetId v : *seeds) need[v] = 1;
    next_need.assign(num_nets, 0);
    rebuilt.assign(num_nets, 0);
    prev_final.resize(num_nets);
  }
  // A net whose rebuilt list actually differs from its memoized one dirties
  // its one-hop readers: fanout gate outputs (pseudo propagation, balanced
  // unions) and live coupled partners (higher-order atoms, primary
  // envelopes). A reader the net has a graph edge to — every fanout gate
  // output, and each partner it is an input of — has not started yet and
  // is marked for this sweep; every other reader is marked for the next
  // one. Marks are sticky, so marking a reader again is a no-op. No
  // transitive closure — if the reader's own list then comes out
  // unchanged, the wave stops there. Runs inside v's own task.
  auto mark_changed = [&](net::NetId v) {
    for (std::size_t r : graph.successors(v)) set_flag(need, r);
    for (layout::CapId cap : par_.couplings_of(v)) {
      const layout::CouplingCap& cc = par_.coupling(cap);
      if (cc.cap_pf > 0.0) set_flag(next_need, cc.other(v));
    }
  };

  std::size_t work_victims = 0;  // warm: total re-enumerations
  // Per-victim prune tallies, accumulated by every sweep task and reduced
  // once after the last sweep.
  std::vector<topk::PruneStats> net_prune(num_nets);
  std::vector<std::size_t> net_max(num_nets, 0);

  // Elimination needs a second sweep per cardinality: its indirect
  // (window-narrowing) atoms reference the aggressor net's *current*-
  // cardinality winner, which only exists after the first sweep when the
  // aggressor is not an input of the victim. Lists deduplicate, so the
  // second sweep is a pure refinement.
  const int sweeps = addition ? 1 : 2;
  for (std::size_t i = first; i <= last; ++i) {
    const bool warm = i <= warm_to;
    const std::int64_t card_start_ns = obs::now_ns();
    obs::ScopedSpan card_span(str::format("topk.cardinality.%zu", i));
    if (memo_.lists[i - 1].size() != num_nets) {
      memo_.lists[i - 1].assign(num_nets, {});
    }
    if (memo_.retain && !addition && memo_.sweep0[i - 1].size() != num_nets) {
      memo_.sweep0[i - 1].assign(num_nets, {});
    }
    for (BestSnap& s : ho_snap) s.valid = false;
    for (BestSnap& s : ho_prev) s.valid = false;
    if (warm) rebuilt.assign(num_nets, 0);
    ctx.dirty = warm ? &rebuilt : nullptr;

    // Every sweep runs on the dependency-counted task graph: each victim is
    // one task, released the moment its inputs have completed, so
    // independent subtrees overlap across levels. A cold task generates,
    // reduces and publishes; a warm task does so only for a needy victim,
    // bracketed by the memo save/restore and the compare that routes
    // dirtiness, and otherwise just publishes the memoized winner. Every
    // write lands in the victim's own slot (the need marks are relaxed
    // flags) and all reductions run on the calling thread in net-id order,
    // so the result is bit-identical for every thread count
    // (docs/SCHEDULER.md has the full determinism argument).
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      obs::ScopedSpan sweep_span("topk.stage.sweep_graph");
      c_sweep_graphs.add(1);
      graph.run(threads, [&](std::size_t t) {
        const net::NetId v = static_cast<net::NetId>(t);
        topk::IList& live = memo_.lists[i - 1][v];
        if (warm) {
          if (!std::atomic_ref<char>(need[v]).load(std::memory_order_relaxed)) {
            if (!addition) PruneStage::publish_one(ctx, v, i, sweep);
            return;
          }
          if (sweep == 0) {
            // Keep the memoized final list for the compare below; generate
            // is about to clear and rebuild it.
            prev_final[v].assign(live.sets().begin(), live.sets().end());
            rebuilt[v] = 1;
          } else if (!rebuilt[v]) {
            // Dirtied mid-cardinality by a change after its sweep-0 task:
            // its own sweep-0 inputs were clean, so the memoized sweep-0
            // snapshot is exactly the list a cold run would enter sweep 1
            // with.
            prev_final[v].assign(live.sets().begin(), live.sets().end());
            live.clear();
            for (const topk::CandidateSet& s : memo_.sweep0[i - 1][v]) {
              live.try_add(s);
            }
          }
        }
        CandidateStage::generate(ctx, v, i, sweep);
        PruneStage::reduce(ctx, v, i, &net_prune[t], &net_max[t]);
        if (warm) {
          // Compare the rebuilt list against what this query would have
          // read had the victim stayed clean — the final sweep against the
          // memoized final list, elimination sweep 0 against the old
          // sweep-0 snapshot (publish_one overwrites it right below).
          const std::vector<topk::CandidateSet>& prev =
              sweep == sweeps - 1 ? prev_final[v] : memo_.sweep0[i - 1][v];
          if (!lists_equal(live.sets(), prev)) mark_changed(v);
        }
        if (!addition) PruneStage::publish_one(ctx, v, i, sweep);
      });
      // The finished sweep becomes the "previous" buffer the next sweep's
      // non-input higher-order reads see (ho_of).
      if (!addition) ho_snap.swap(ho_prev);
      if (warm) {
        // A task reads its need flag when it starts, after every mark an
        // input can set: the flags now name exactly the needy victims.
        for (net::NetId v = 0; v < num_nets; ++v) {
          work_victims += need[v] != 0;
          need[v] |= next_need[v];
        }
      }
    }

    {
      obs::ScopedSpan eval_span("topk.stage.evaluate");
      evaluate.select(i);
    }
    const std::int64_t now = obs::now_ns();
    result.stats.runtime_by_k.push_back(obs::ns_to_seconds(now - run_start_ns));
    reg.gauge(str::format("topk.cardinality_runtime_s.k%zu", i))
        .set(obs::ns_to_seconds(now - card_start_ns));
    if (log::enabled(log::Level::kDebug)) {
      log::debug() << "topk: cardinality " << i << " done in "
                   << obs::ns_to_seconds(now - card_start_ns)
                   << " s, best delay " << memo_.estimated_delay_by_k.back();
    }
    // Rolling memory for one-shot runs: cardinality i-1's layer is dead
    // once cardinality i completed (cardinality i+1 reads only layer i, the
    // re-ranking only layer k).
    if (!memo_.retain && i >= 2) {
      memo_.lists[i - 2].clear();
      memo_.lists[i - 2].shrink_to_fit();
    }
  }

  for (std::size_t t = 0; t < num_nets; ++t) {
    result.stats.prune.considered += net_prune[t].considered;
    result.stats.prune.removed_dominated += net_prune[t].removed_dominated;
    result.stats.prune.removed_beam += net_prune[t].removed_beam;
    result.stats.max_list_size = std::max(result.stats.max_list_size, net_max[t]);
  }
  // The answer at k: the trail's first k entries. A memo that is not
  // retained ends with this query, whose k is all it holds, so its trail
  // moves out instead.
  if (memo_.retain) {
    result.set_by_k.assign(memo_.set_by_k.begin(),
                           memo_.set_by_k.begin() + k);
    result.estimated_delay_by_k.assign(memo_.estimated_delay_by_k.begin(),
                                       memo_.estimated_delay_by_k.begin() + k);
    result.finalists_by_k.assign(memo_.finalists_by_k.begin(),
                                 memo_.finalists_by_k.begin() + k);
  } else {
    result.set_by_k = std::move(memo_.set_by_k);
    result.estimated_delay_by_k = std::move(memo_.estimated_delay_by_k);
    result.finalists_by_k = std::move(memo_.finalists_by_k);
  }
  result.members = result.set_by_k.back();
  result.estimated_delay = result.estimated_delay_by_k.back();
  result.evaluated_delay = result.estimated_delay;
  {
    obs::ScopedSpan eval_span("topk.stage.evaluate");
    evaluate.finalize(k);
  }
  result.stats.threads = threads;
  result.stats.runtime_s = obs::ns_to_seconds(obs::now_ns() - run_start_ns);

  if (warm_to > 0) {
    std::size_t frontier = 0;
    for (char f : need) frontier += f != 0;
    reg.gauge("session.dirty_victims").set(static_cast<double>(frontier));
    log::info() << "session: what-if re-enumerated " << work_victims
                << " victim sweeps across " << frontier << " of " << num_nets
                << " nets";
  }

  // Publish the per-query prune tallies and fill the counter-derived stats
  // fields from the registry.
  c_dominance.add(result.stats.prune.removed_dominated);
  c_beam.add(result.stats.prune.removed_beam);
  result.stats.sets_generated = c_sets.value() - sets_before;
  reg.gauge("topk.max_list_size")
      .set(static_cast<double>(result.stats.max_list_size));
  reg.gauge("topk.runtime_s").set(result.stats.runtime_s);

  // Waveform-pool hygiene: the query's transient waveforms are gone, so ask
  // every thread (lazily, at its next pool touch) to trim its free lists
  // back to a small warm set. Long-lived shard workers otherwise keep a
  // query-peak's worth of parked blocks forever. Long-lived waveforms
  // (envelope cache, memo snapshots) own their blocks and are unaffected.
  wave::pool::trim_all(kPoolKeepBytesPerThread);
  wave::pool::publish_gauges();

  // Memory accounting: walk the memoized state once per query that swept
  // and publish the approximate footprints (mem.candidate_tables_bytes for
  // the live I-list layers, mem.whatif_memo_bytes for the replay snapshots
  // and winner trails).
  if (first <= last) {
    std::size_t table_bytes = 0;
    for (const std::vector<topk::IList>& layer : memo_.lists) {
      for (const topk::IList& list : layer) table_bytes += list.approx_bytes();
    }
    std::size_t memo_bytes = 0;
    for (const auto& layer : memo_.sweep0) {
      for (const std::vector<topk::CandidateSet>& snap : layer) {
        memo_bytes += snap.capacity() * sizeof(topk::CandidateSet);
        for (const topk::CandidateSet& s : snap) {
          memo_bytes += s.members.capacity() * sizeof(layout::CapId);
          memo_bytes += s.envelope.heap_bytes();
        }
      }
    }
    for (const std::vector<double>& w : memo_.winner_score) {
      memo_bytes += w.capacity() * sizeof(double);
    }
    for (const auto& trails : memo_.winner_members) {
      memo_bytes += trails.capacity() * sizeof(std::vector<layout::CapId>);
      for (const std::vector<layout::CapId>& t : trails) {
        memo_bytes += t.capacity() * sizeof(layout::CapId);
      }
    }
    candidate_bytes_.set(static_cast<std::int64_t>(table_bytes));
    memo_bytes_.set(static_cast<std::int64_t>(memo_bytes));
  }
  // Runtime attribution over just this query.
  {
    const std::vector<runtime::LaneCounters> query_lanes =
        runtime::lane_delta(lanes_before, runtime::lane_snapshot());
    std::uint64_t exec = 0, cpu = 0, idle = 0, barrier = 0;
    for (const runtime::LaneCounters& l : query_lanes) {
      exec += l.exec_ns;
      cpu += l.exec_cpu_ns;
      idle += l.queue_idle_ns;
      barrier += l.barrier_wait_ns;
    }
    reg.gauge("runtime.query.exec_s")
        .set(obs::ns_to_seconds(static_cast<std::int64_t>(exec)));
    reg.gauge("runtime.query.exec_cpu_s")
        .set(obs::ns_to_seconds(static_cast<std::int64_t>(cpu)));
    reg.gauge("runtime.query.queue_idle_s")
        .set(obs::ns_to_seconds(static_cast<std::int64_t>(idle)));
    reg.gauge("runtime.query.barrier_wait_s")
        .set(obs::ns_to_seconds(static_cast<std::int64_t>(barrier)));
    reg.gauge("runtime.query.wall_s").set(result.stats.runtime_s);
  }

  log::info() << "topk: done in " << result.stats.runtime_s << " s, "
              << result.stats.sets_generated << " sets generated, "
              << result.stats.prune.removed_dominated << " dominance-pruned, "
              << result.stats.prune.removed_beam << " beam-capped, delay "
              << result.baseline_delay << " -> " << result.evaluated_delay;
  return result;
}

}  // namespace tka::session
