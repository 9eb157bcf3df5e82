// Options and results of the top-k aggressor-set engine (paper §3,
// Figure 9); a query runs through session::AnalysisSession.
//
// Implicit bottom-up enumeration: for cardinality i = 1..k, every victim
// net (in topological order) builds its list_i from
//   1. one-more-primary extensions of its I-list_{i-1},
//   2. pseudo input aggressors of cardinality i propagated from fanins,
//   3. higher-order aggressors (primaries whose window is widened/narrowed
//      by the aggressor net's own worst (i-1)-set),
// then reduces it to the irredundant list by dominance pruning plus an
// optional beam cap. The reported top-k set is the best member of the sink
// I-list_k; the engine re-evaluates it with the full iterative noise
// analysis so the reported circuit delay is honest.
//
// Addition mode starts from noiseless windows and maximizes delay noise;
// elimination mode starts from the fully-noisy fixpoint windows and
// maximizes the noise reduction of removing the set (paper §3.4).
#pragma once

#include <cstddef>

#include <limits>
#include <vector>

#include "noise/iterative.hpp"
#include "topk/irredundant_list.hpp"
#include "topk/pseudo_aggressor.hpp"

namespace tka::topk {

/// PWL simplification tolerance (V) of candidate and total envelopes.
inline constexpr double kEnvelopeTol = 2e-4;
/// Envelope-encapsulation tolerance (V) of dominance pruning.
inline constexpr double kDominanceTol = 1e-6;

/// Engine controls.
struct TopkOptions {
  int k = 10;
  Mode mode = Mode::kAddition;

  /// Worker threads for the task-graph victim sweep, the baseline /
  /// re-evaluation fixpoints and the finalist re-ranking. 0 = resolve from
  /// TKA_THREADS, then hardware concurrency (see runtime/runtime.hpp);
  /// 1 = exact serial execution through the same code path. Results are
  /// bit-identical for every thread count.
  int threads = 0;

  bool use_dominance = true;        ///< ablation: Pareto pruning on/off
  bool use_pseudo = true;           ///< ablation: fanin propagation on/off
  bool propagate_full_ilist = true; ///< false: only each fanin's winner set
  bool use_filter = true;           ///< false-aggressor prefilter

  /// Beam cap on every I-list after dominance pruning (0 = unbounded;
  /// unbounded is exact but can blow up on dense circuits).
  size_t beam_cap = 48;

  /// Keep only the N largest couplings per victim during enumeration
  /// (0 = all). This is the industry practice the paper's introduction
  /// describes ("restricting the set of primary aggressors for each victim
  /// to a few, say 10, by maximum coupling"); the engine still considers
  /// their indirect/pseudo interactions exactly.
  size_t max_primary_per_victim = 0;

  /// Victims with STA slack above this threshold skip primary enumeration
  /// (they still propagate pseudo aggressors). infinity = process all.
  double victim_slack_threshold = std::numeric_limits<double>::infinity();

  bool reevaluate = true;  ///< full iterative re-evaluation of the result

  /// When re-evaluating, also exactly evaluate up to this many of the
  /// sink's best cardinality-k candidates and keep the true optimum among
  /// them. Closes small first-order scoring gaps (mainly in elimination
  /// mode, where removing a set perturbs the fixpoint). 0 disables.
  size_t rerank_top = 6;

  noise::IterativeOptions iterative;  ///< baseline/evaluation controls
};

/// Counters for reporting and the ablation benches.
///
/// All times are wall-clock **seconds** measured on the obs monotonic clock
/// (obs/clock.hpp) — the same source the tracer stamps spans with, so these
/// numbers line up with `--trace` / `--metrics` output. `sets_generated`
/// is the run's delta of the `topk.sets_generated` registry counter; the
/// other fields are tallied by the run itself.
struct TopkStats {
  int threads = 1;            ///< resolved worker count the run used
  size_t sets_generated = 0;  ///< candidate sets scored (registry-backed)
  size_t max_list_size = 0;   ///< largest I-list seen after reduction
  PruneStats prune;           ///< dominance/beam removal tallies
  double runtime_s = 0.0;     ///< whole-run wall-clock seconds
  /// Cumulative wall-clock seconds from run start to the end of each
  /// cardinality the query swept, in order — every i = 1..k (index i-1)
  /// for a cold run; runtime_by_k.back() ~ runtime_s minus the final
  /// re-evaluation. A warm query sweeps only what its edits or a k above
  /// the session's memo need.
  std::vector<double> runtime_by_k;
};

/// Engine output.
struct TopkResult {
  Mode mode = Mode::kAddition;
  std::vector<layout::CapId> members;  ///< the chosen top-k coupling set

  double baseline_delay = 0.0;   ///< no-aggressor (addition) / all-aggressor (elim)
  double reference_delay = 0.0;  ///< the opposite extreme, for context
  double estimated_delay = 0.0;  ///< estimator's circuit delay with the set
  double evaluated_delay = 0.0;  ///< full iterative re-evaluation

  /// Per-cardinality trail (index i-1 = cardinality i): the winning set and
  /// the estimator's circuit delay, so one k=K run yields the whole curve.
  std::vector<std::vector<layout::CapId>> set_by_k;
  std::vector<double> estimated_delay_by_k;

  /// Up to a handful of runner-up sink sets per cardinality (best first).
  /// Callers that report a delay at cardinality i can exactly re-evaluate
  /// these along with set_by_k[i-1] and keep the true best — the estimator
  /// ranks conservatively, especially in elimination mode.
  std::vector<std::vector<std::vector<layout::CapId>>> finalists_by_k;

  TopkStats stats;
};

}  // namespace tka::topk
