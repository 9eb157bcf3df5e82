// Shared state of the staged top-k pipeline (docs/ARCHITECTURE.md).
//
// A query runs four stages over one QueryContext:
//   BaselineStage  — STA + noiseless/noisy fixpoints and every per-victim
//                    derived quantity (windows, envelopes, intervals).
//   CandidateStage — primary extensions, pseudo propagation and the
//                    higher-order widening atoms for one victim.
//   PruneStage     — dominance + beam reduction, winner recording and the
//                    higher-order snapshot publication.
//   EvaluateStage  — sink selection per cardinality and the final exact
//                    re-evaluation / re-ranking.
//
// The structs here are owned by session::AnalysisSession and persist across
// queries: a what-if query re-runs the stages only over the victims whose
// inputs changed (change-driven — a rebuilt list that comes out identical
// stops the dirtiness wave), reading every clean victim's memoized lists.
// A cold query is the degenerate case where everything is rebuilt.
#pragma once

#include <cstddef>

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "noise/iterative.hpp"
#include "obs/metrics.hpp"
#include "topk/irredundant_list.hpp"
#include "topk/topk_engine.hpp"

namespace tka::topk::stages {

/// The analyzed design, by reference. The session guarantees these outlive
/// every stage call.
struct DesignRef {
  const net::Netlist* nl = nullptr;
  const layout::Parasitics* par = nullptr;
  const sta::DelayModel* model = nullptr;
  const noise::CouplingCalculator* calc = nullptr;
};

/// Everything BaselineStage derives from the fixpoints, persisted across
/// queries. refresh() updates only the entries an edit actually moved.
struct BaselineState {
  bool addition = true;
  double vdd = 0.0;

  /// The mask=all fixpoint (elimination start / addition reference), with
  /// its recorded trajectory for incremental re-convergence.
  std::unique_ptr<noise::IncrementalFixpoint> fixpoint;
  std::unique_ptr<noise::NoiseAnalyzer> analyzer;
  /// Envelope cache over `windows`; survives refresh() so only invalidated
  /// entries rebuild.
  std::unique_ptr<noise::EnvelopeBuilder> builder;

  /// Mode-selected window view into the fixpoint report (noiseless for
  /// addition, noisy for elimination). Stable across refresh().
  const sta::WindowTable* windows = nullptr;

  std::vector<std::vector<layout::CapId>> active_caps;  // per victim
  std::vector<double> vic_t50;
  std::vector<wave::Pwl> vic_wave;
  std::vector<wave::Pwl> total_env;  // elimination only
  std::vector<double> dn_total;      // elimination only
  std::vector<double> local_ub;      // per-net delay-noise upper bound
  std::vector<double> cum_ub;        // path-accumulated upper bound
  std::vector<wave::DominanceInterval> iv;
  std::vector<char> full_victim;
  std::vector<double> base_slack;  // only when the slack gate / fallback is on
  std::vector<net::NetId> topo;
  std::vector<layout::CapId> caps_by_size;  // descending cap_pf, for padding
  std::vector<net::NetId> sinks;
};

/// Virtual-sink candidate (elimination): per-PO reduction contributions,
/// combined across the worst few POs (the paper's single "sink node",
/// generalized).
struct SinkSet {
  std::vector<layout::CapId> members;
  std::vector<std::pair<net::NetId, double>> per_po;  // reduction at PO
  double est_delay = 0.0;
};

/// Memoized enumeration state per (cardinality, victim), persisted across
/// queries. The lists ARE the live working storage: a query's CandidateStage
/// clears and rebuilds exactly the dirty victims' lists, so after any query
/// the memo equals what a cold run on the current design would have built,
/// up to cardinality k(). Cardinality i reads only cardinalities below it,
/// so the memo also holds every smaller k's answer, and a later sweep of
/// cardinalities k()+1.. extends it exactly as a cold run at the larger k
/// would have built it.
struct SweepMemo {
  /// Keep all cardinality layers alive after the query (required for
  /// what_if). When false the orchestrator frees layer i-1 once cardinality
  /// i+1 completes, matching the two-layer memory of a one-shot run.
  bool retain = true;
  std::vector<std::vector<IList>> lists;  // [cardinality-1][net]
  /// Elimination only (retain mode): each dirty victim's list contents at
  /// the end of sweep 0, so the next query's dirty victims can replay their
  /// sweep-0 reads of clean fanins exactly.
  std::vector<std::vector<std::vector<CandidateSet>>> sweep0;
  std::vector<std::vector<double>> winner_score;  // [net][cardinality]
  std::vector<std::vector<std::vector<layout::CapId>>> winner_members;

  /// EvaluateStage's per-cardinality trail (index i-1 = cardinality i): the
  /// TopkResult fields of the same names, at cardinalities 1..k.
  std::vector<std::vector<layout::CapId>> set_by_k;
  std::vector<double> estimated_delay_by_k;
  std::vector<std::vector<std::vector<layout::CapId>>> finalists_by_k;
  /// Elimination: the virtual-sink list of each cardinality i (index i),
  /// best first. Cardinality i's list unions lower cardinalities' lists
  /// with the hot POs' sets; the final re-ranking reads the answered k's.
  std::vector<std::vector<SinkSet>> sink_lists;

  /// Cardinalities held.
  std::size_t k() const { return lists.size(); }
};

/// Per-net winner snapshot (elimination higher-order reads). Reset per
/// cardinality, published by each victim's sweep task.
struct BestSnap {
  bool valid = false;
  double score = -1.0;
  std::vector<layout::CapId> members;
};

/// IList::best() over a snapshot vector: strictly-greater scan, first wins
/// on ties — byte-for-byte the same tie-breaking as the live list.
inline const CandidateSet* best_of(std::span<const CandidateSet> sets) {
  const CandidateSet* best = &sets.front();
  for (const CandidateSet& s : sets) {
    if (s.score > best->score) best = &s;
  }
  return best;
}

/// One query's view over the session state, threaded through every stage.
struct QueryContext {
  DesignRef design;
  const TopkOptions* opt = nullptr;
  noise::IterativeOptions iter_opt;  // threads resolved
  int threads = 1;
  bool addition = true;

  BaselineState* base = nullptr;
  SweepMemo* memo = nullptr;
  /// Warm queries point this at the session's per-cardinality "rebuilt at
  /// sweep 0" table (reset each cardinality, set when a needy victim's
  /// sweep-0 task starts); nullptr = cold query (every victim rebuilt).
  const std::vector<char>* dirty = nullptr;
  /// Elimination only: the higher-order snapshots, double-buffered. ho_snap
  /// is the *current* sweep's buffer (written by each victim's publish),
  /// ho_prev the completed previous sweep's (immutable during the sweep,
  /// all-invalid at sweep 0).
  std::vector<BestSnap>* ho_snap = nullptr;
  const std::vector<BestSnap>* ho_prev = nullptr;
  /// Net -> logic level (net::net_levels), for the input rule below.
  std::span<const int> levels;
  TopkResult* result = nullptr;

  /// Full-fixpoint circuit delay with exactly `members` active (addition)
  /// or removed (elimination). Cold queries run the iterative analysis from
  /// scratch; warm queries clone the session's primed fixpoint.
  std::function<double(std::span<const layout::CapId>,
                       const noise::IterativeOptions&)>
      evaluate;

  // Hot metric handles, hoisted once per query.
  obs::Counter* c_sets = nullptr;
  obs::Counter* c_gen_cap = nullptr;
  obs::Counter* c_surviving = nullptr;
  obs::Histogram* h_ilist = nullptr;

  bool is_dirty(net::NetId v) const {
    return dirty == nullptr || (*dirty)[v] != 0;
  }

  /// The candidate sets of net `u` at `card` as a reader in `sweep` sees
  /// them. Rebuilt nets expose their live list; a net not rebuilt this
  /// cardinality kept its stored final state, which is exactly what this
  /// sweep would have produced — except elimination sweep 0, where the
  /// net's *sweep-0* snapshot from its own last rebuild is the
  /// bit-identical stand-in (its final state includes sweep-1 refinement
  /// a sweep-0 reader must not see).
  std::span<const CandidateSet> sets_of(net::NetId u, std::size_t card,
                                        int sweep) const {
    if (!addition && sweep == 0 && !is_dirty(u)) {
      return memo->sweep0[card - 1][u];
    }
    return memo->lists[card - 1][u].sets();
  }

  /// The one input rule. Within a sweep, victim `v` reads the current-sweep
  /// state of its driver-gate fanins (pseudo propagation, sets_of) and, in
  /// elimination mode, of each active coupled partner at a strictly lower
  /// level (higher-order atoms, ho_of); this tests the partner half. Every
  /// other cross-victim read is of a completed sweep or cardinality. The
  /// session's sweep graph has one edge per input, so an input's task has
  /// finished before any task that reads it starts.
  bool partner_is_input(net::NetId a, net::NetId v) const {
    return !addition && levels[a] < levels[v];
  }

  /// The higher-order snapshot of aggressor `a` as victim `v` sees it: the
  /// current sweep's publication for an input partner (its a -> v edge
  /// makes it complete), the previous sweep's for any other partner
  /// (invalid during sweep 0).
  const BestSnap& ho_of(net::NetId a, net::NetId v) const {
    return partner_is_input(a, v) ? (*ho_snap)[a] : (*ho_prev)[a];
  }
};

}  // namespace tka::topk::stages
