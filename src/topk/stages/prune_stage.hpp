// PruneStage: reduces a victim's generated candidates to the irredundant
// list (dominance pruning + beam cap), records the per-victim winner trail,
// and publishes the snapshots elimination's higher-order atoms read.
#pragma once

#include "topk/stages/stage_context.hpp"

namespace tka::topk::stages {

class PruneStage {
 public:
  /// Step 4+5 for one victim: reduce the live list, record list-size
  /// telemetry and the cardinality-i winner. Writes only victim-owned
  /// slots, so it runs inside the victim's sweep task.
  static void reduce(const QueryContext& ctx, net::NetId v, std::size_t i,
                     PruneStats* prune_out, std::size_t* max_list_out);

  /// Elimination only: snapshots a dirty victim's sweep-0 list for the next
  /// query and publishes its current winner into ctx.ho_snap (the current-
  /// sweep buffer) for higher-order reads. Every victim's sweep task ends
  /// with it, clean victims included. Writes only victim-owned slots; an
  /// a -> v edge guarantees `a`'s publication precedes any current-sweep
  /// read by `v`.
  static void publish_one(const QueryContext& ctx, net::NetId v,
                          std::size_t i, int sweep);
};

}  // namespace tka::topk::stages
