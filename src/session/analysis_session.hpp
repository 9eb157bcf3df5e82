// AnalysisSession: the persistent orchestrator of the staged top-k
// pipeline (docs/ARCHITECTURE.md), and the one way to run a query.
//
// A session owns copies of the netlist and parasitics, the delay model and
// coupling calculator over them, the envelope caches and the recorded
// baseline fixpoints, and keeps them warm across queries:
//
//   run(options)        — cold query: primes the baseline and enumerates
//                         every victim. A one-shot query is a fresh
//                         session's run().
//   what_if(edits, k)   — applies an ordered batch of repair edits to the
//                         session's design copy, re-converges the baseline
//                         incrementally over their union footprint, and
//                         re-enumerates only the victims whose inputs
//                         actually changed; then answers at k. Both run the
//                         same per-victim task graph; dirtiness spreads
//                         change-driven along it: a rebuilt list is compared
//                         against its memoized predecessor, and only a real
//                         difference dirties its readers.
//
// The memo holds cardinalities 1..K, where K is the largest k the session
// has answered, and every smaller k's answer with them (cardinality i never
// reads a larger one). So an answer at k <= K runs only the final exact
// re-evaluation, and one at k > K sweeps cardinalities K+1..k on top of the
// memo. Every answer is bit-identical to a cold run() at the same k on the
// same design, at every thread count.
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

  /// Incremental query after a batch of repair edits, applied in order,
  /// answered at cardinality k; an empty batch answers at k on the current
  /// design. Requires a primed session with retain_candidates on. Uses the
  /// options of the last run() but for k. A batch holding an edit that
  /// fails check_edit throws tka::Error and leaves the design and every
  /// warm state untouched; any other failure leaves the session unprimed.
  topk::TopkResult what_if(std::span<const WhatIfEdit> edits, int k);
  /// One edit, answered at the last run()'s k.
  topk::TopkResult what_if(const WhatIfEdit& edit);

  bool primed() const { return primed_; }
  const net::Netlist& netlist() const { return nl_; }
  const layout::Parasitics& parasitics() const { return par_; }
  /// The last run()'s options, worker counts resolved.
  const topk::TopkOptions& options() const { return opt_; }

 private:
  /// Answers at cardinality k. A cold query primes the baseline and sweeps
  /// cardinalities 1..k with cold tasks. A warm one re-enumerates the memo's
  /// cardinalities from `seeds`, the victims the baseline refresh
  /// invalidated (nullptr: no edit, nothing to re-enumerate); then both
  /// sweep every cardinality above the memo's up to k with cold tasks.
  topk::TopkResult query(bool cold, const std::vector<net::NetId>* seeds,
                         std::size_t k);
  double evaluate_members(std::span<const layout::CapId> members,
                          const noise::IterativeOptions& iterative, bool warm);

  topk::stages::DesignRef design() const {
    return {&nl_, &par_, &model_, &calc_};
  }

  // Declaration order matters: the model binds the copies and the
  // calculator binds the model. The members hold no derivable state: the
  // object stays within the 1032 bytes glibc's malloc serves from its
  // per-thread cache, which keeps a one-shot session's hand-off at about
  // a microsecond (perfbench setup_s rose 10-17% at 1112 bytes).
  net::Netlist nl_;
  layout::Parasitics par_;
  sta::DelayModel model_;
  noise::AnalyticCouplingCalculator calc_;
  SessionOptions sopt_;
  bool primed_ = false;
  /// The last run()'s options, worker counts resolved.
  topk::TopkOptions opt_;

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
