// AnalysisSession: the persistent orchestrator of the staged top-k
// pipeline (docs/ARCHITECTURE.md), and the one way to run a query.
//
// A session owns copies of the netlist and parasitics, the delay model and
// coupling calculator over them, the envelope caches, the false-aggressor
// filter state and the recorded baseline fixpoints, and keeps them warm
// across queries:
//
//   run(options)   — cold query: primes the baseline and enumerates every
//                    victim. A one-shot query is a fresh session's run().
//   what_if(edit)  — applies a repair edit to the session's design copy,
//                    re-converges the baseline incrementally, and
//                    re-enumerates only the victims whose inputs actually
//                    changed. Both run the same per-victim task graph;
//                    dirtiness spreads change-driven along it: a rebuilt
//                    list is compared against its memoized predecessor,
//                    and only a real difference dirties its readers. The
//                    result is bit-identical to a cold run() on the edited
//                    design, at every thread count.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "layout/parasitics.hpp"
#include "net/netlist.hpp"
#include "noise/coupling_calc.hpp"
#include "obs/memory.hpp"
#include "session/what_if.hpp"
#include "sta/delay_model.hpp"
#include "topk/stages/stage_context.hpp"

namespace tka::session {

struct SessionOptions {
  /// Keep every cardinality layer of candidate lists (and the elimination
  /// sweep-0 snapshots) alive between queries — required for what_if().
  /// Off, a run keeps a two-layer rolling memory: cardinality i reads only
  /// layer i-1, so older layers are freed as the run goes.
  bool retain_candidates = false;
};

class AnalysisSession {
 public:
  /// Takes the netlist and parasitics as the session's editable copies
  /// (the cell library referenced by `nl` must outlive the session) and
  /// builds the delay model and analytic coupling calculator over them.
  /// Both are chunked copy-on-write: passing a copy costs O(chunk table).
  AnalysisSession(net::Netlist nl, layout::Parasitics par,
                  const sta::DelayModelOptions& model_options,
                  SessionOptions options = {});

  ~AnalysisSession();
  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  /// Cold query: (re)primes the baseline state and enumerates everything.
  topk::TopkResult run(const topk::TopkOptions& options);

  /// Incremental what-if query after a repair edit. Requires a primed
  /// session with retain_candidates on. Uses the options of the last run().
  topk::TopkResult what_if(const WhatIfEdit& edit);

  bool primed() const { return primed_; }
  const net::Netlist& netlist() const { return nl_; }
  const layout::Parasitics& parasitics() const { return par_; }
  const topk::TopkOptions& options() const { return opt_; }
  /// The mask=all fixpoint report of the current design state.
  const noise::NoiseReport& baseline_report() const;

 private:
  /// `seeds` lists the victims the baseline refresh invalidated; nullptr
  /// means a cold query (every victim enumerated).
  topk::TopkResult query(const std::vector<net::NetId>* seeds);
  double evaluate_members(std::span<const layout::CapId> members,
                          const noise::IterativeOptions& iterative, bool warm);

  // Declaration order matters: the model binds the copies, the calculator
  // binds the model, and design_ points at all four.
  net::Netlist nl_;
  layout::Parasitics par_;
  sta::DelayModel model_;
  noise::AnalyticCouplingCalculator calc_;
  topk::stages::DesignRef design_;
  SessionOptions sopt_;
  topk::TopkOptions opt_;
  noise::IterativeOptions iter_opt_;
  int threads_ = 1;
  bool primed_ = false;

  topk::stages::BaselineState base_;
  topk::stages::SweepMemo memo_;
  /// Approximate footprint of the memoized enumeration state, refreshed at
  /// the end of every query and published as mem.* gauges. Contributions
  /// auto-release on session teardown (the TrackedBytes balance invariant).
  obs::TrackedBytes candidate_bytes_{"mem.candidate_tables_bytes"};
  obs::TrackedBytes memo_bytes_{"mem.whatif_memo_bytes"};
  /// Addition-mode warm-evaluation base: the mask=none fixpoint, primed on
  /// the first what_if (cold runs never need it).
  std::unique_ptr<noise::IncrementalFixpoint> fp_none_;
};

}  // namespace tka::session
