// AnalysisSession: the persistent orchestrator of the staged top-k
// pipeline (docs/ARCHITECTURE.md).
//
// A session owns the netlist/parasitics view, the delay model, the
// envelope caches, the false-aggressor filter state and the recorded
// baseline fixpoints, and keeps them warm across queries:
//
//   run(options)   — cold query: primes the baseline and enumerates every
//                    victim. Bit-identical (values and counters) to what
//                    the old monolithic TopkEngine::run produced;
//                    TopkEngine::run is now a thin wrapper over this.
//   what_if(edit)  — applies a repair edit to the session's private design
//                    copy, re-converges the baseline incrementally, and
//                    re-enumerates only the victims whose inputs actually
//                    changed. Dirtiness spreads change-driven with the
//                    sweep: a rebuilt list is compared against its memoized
//                    predecessor, and only a real difference dirties its
//                    readers. The result is bit-identical to a cold run()
//                    on the edited design, at every thread count.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "noise/coupling_calc.hpp"
#include "obs/memory.hpp"
#include "runtime/task_graph.hpp"
#include "session/what_if.hpp"
#include "topk/stages/stage_context.hpp"

namespace tka::session {

class DesignSnapshot;

struct SessionOptions {
  /// Keep every cardinality layer of candidate lists (and the elimination
  /// sweep-0 snapshots) alive between queries — required for what_if().
  /// One-shot runs set false and get the two-layer rolling memory of the
  /// old engine.
  bool retain_candidates = true;
};

class AnalysisSession {
 public:
  /// Borrowing session: analyzes an externally owned design. what_if() is
  /// unavailable (the design cannot be edited through the session).
  AnalysisSession(const net::Netlist& nl, const layout::Parasitics& par,
                  const sta::DelayModel& model,
                  const noise::CouplingCalculator& calc,
                  SessionOptions options = {});

  /// Owning session: takes private, editable copies of the netlist and
  /// parasitics (the cell library referenced by `nl` must outlive the
  /// session) and builds its own delay model and coupling calculator.
  AnalysisSession(net::Netlist nl, layout::Parasitics par,
                  const sta::DelayModelOptions& model_options,
                  SessionOptions options = {});

  /// Session over a pinned immutable snapshot: an owning session whose
  /// private copies are COW — structurally sharing the snapshot's storage
  /// until a what_if edit detaches a chunk. The snapshot stays alive
  /// (pinned) for the session's lifetime, so building one is O(chunk
  /// table), not O(design). This is how shard workers serve queries
  /// without replica copies.
  explicit AnalysisSession(std::shared_ptr<const DesignSnapshot> snapshot,
                           SessionOptions options = {});

  ~AnalysisSession();
  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  /// Cold query: (re)primes the baseline state and enumerates everything.
  topk::TopkResult run(const topk::TopkOptions& options);

  /// Incremental what-if query after a repair edit. Requires an owning,
  /// primed session with retain_candidates on. Uses the options of the
  /// last run().
  topk::TopkResult what_if(const WhatIfEdit& edit);

  bool primed() const { return primed_; }
  /// The pinned snapshot (null unless snapshot-constructed).
  const std::shared_ptr<const DesignSnapshot>& snapshot() const {
    return snap_;
  }
  const net::Netlist& netlist() const { return *design_.nl; }
  const layout::Parasitics& parasitics() const { return *design_.par; }
  const topk::TopkOptions& options() const { return opt_; }
  /// The mask=all fixpoint report of the current design state.
  const noise::NoiseReport& baseline_report() const;

 private:
  /// `seeds` lists the victims the baseline refresh invalidated; nullptr
  /// means a cold query (every victim enumerated).
  topk::TopkResult query(const std::vector<net::NetId>* seeds);
  double evaluate_members(std::span<const layout::CapId> members,
                          const noise::IterativeOptions& iterative, bool warm);

  // Owning storage; null in borrowing sessions. Declaration order matters:
  // the model binds the copies, the calculator binds the model.
  std::unique_ptr<net::Netlist> nl_own_;
  std::unique_ptr<layout::Parasitics> par_own_;
  std::unique_ptr<sta::DelayModel> model_own_;
  std::unique_ptr<noise::CouplingCalculator> calc_own_;
  /// Keeps the source snapshot alive while the owning copies share its
  /// storage chunks (null for non-snapshot sessions).
  std::shared_ptr<const DesignSnapshot> snap_;

  topk::stages::DesignRef design_;
  SessionOptions sopt_;
  topk::TopkOptions opt_;
  noise::IterativeOptions iter_opt_;
  int threads_ = 1;
  bool primed_ = false;

  topk::stages::BaselineState base_;
  topk::stages::SweepMemo memo_;
  /// Logic level per net (net::net_levels) and the nets of each level in
  /// ascending id order, rebuilt on every cold prime. Cold sweeps read the
  /// map (sweep-graph edges, QueryContext::levels); warm what_if sweeps
  /// walk the levels in order.
  std::vector<int> level_of_;
  std::vector<std::vector<net::NetId>> levels_;
  /// Dependency graph over nets for cold sweeps: fanin edges (pseudo
  /// propagation) plus, in elimination mode, lower-level coupled partners
  /// (current-sweep higher-order reads). Rebuilt with the level map on
  /// every cold prime — it depends on the query mode and the baseline's
  /// active caps. Warm what_if queries walk the levels instead: their
  /// need-flag growth depends on level order (docs/ARCHITECTURE.md).
  std::unique_ptr<runtime::TaskGraph> sweep_graph_;
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
