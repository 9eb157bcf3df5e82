// CandidateStage: builds one victim's cardinality-i candidate list from
//   1. one-more-primary extensions of its I-list_{i-1},
//   2. pseudo input aggressors propagated from fanins (including the
//      reconvergent joint reductions and balanced two-fanin unions of
//      elimination mode),
//   3. higher-order aggressors (windows widened/narrowed by the coupled
//      net's own winner set).
// Pure generation: the reduction to the irredundant list is PruneStage's.
#pragma once

#include "topk/stages/stage_context.hpp"

namespace tka::topk::stages {

class CandidateStage {
 public:
  /// Appends this (victim, cardinality, sweep)'s candidates to the victim's
  /// live list (cleared first on sweep 0). Runs inside the victim's sweep
  /// task: every current-sweep read is of an input whose task has finished
  /// (QueryContext::partner_is_input), every other cross-victim read is of
  /// a completed sweep, and every write lands in the victim's slot.
  static void generate(const QueryContext& ctx, net::NetId v, std::size_t i,
                       int sweep);

  /// Mode-uniform candidate score: larger is "more impactful".
  static double score_env(const QueryContext& ctx, net::NetId v,
                          const wave::Pwl& env);
};

}  // namespace tka::topk::stages
