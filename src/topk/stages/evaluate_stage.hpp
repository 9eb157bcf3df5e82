// EvaluateStage: per-cardinality sink selection (single-PO winners in
// addition mode, virtual-sink unions across the hottest POs in elimination
// mode) and the final exact re-evaluation / re-ranking of the finalists.
//
// Serial on the orchestrating thread except the finalist re-evaluation,
// which fans the candidate fixpoints out over the worker pool and reduces
// the winner in index order (strict-better, first wins).
#pragma once

#include "topk/stages/stage_context.hpp"

namespace tka::topk::stages {

class EvaluateStage {
 public:
  /// Binds one query; derives the hot-PO list from the current windows.
  explicit EvaluateStage(QueryContext* ctx);

  /// Sink selection for cardinality i, once cardinalities 1..i-1 are
  /// selected: sets the memo trail's entry i (the winning set, its
  /// estimated delay and the finalist runners-up) and, in elimination,
  /// the virtual-sink list of cardinality i.
  void select(std::size_t i);

  /// Exact re-evaluation of the result's chosen set of cardinality k plus
  /// up to rerank_top of cardinality k's finalists. Reads only the memo's
  /// cardinality-k state, so it answers any k the memo holds.
  void finalize(std::size_t k);

 private:
  static constexpr std::size_t kSinkPoLimit = 8;
  static constexpr std::size_t kSinkBeam = 64;
  static constexpr std::size_t kFinalists = 6;

  double sink_est_delay(const SinkSet& s) const;
  std::vector<layout::CapId> pad_to(std::vector<layout::CapId> members,
                                    std::size_t card) const;

  QueryContext* ctx_;
  std::vector<net::NetId> hot_pos_;
};

}  // namespace tka::topk::stages
