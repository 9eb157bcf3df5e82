// PruneStage: reduces a victim's generated candidates to the irredundant
// list (dominance pruning + beam cap), records the per-victim winner trail,
// and publishes the level-barrier snapshots elimination's higher-order
// atoms read.
#pragma once

#include <span>

#include "topk/stages/stage_context.hpp"

namespace tka::topk::stages {

class PruneStage {
 public:
  /// Step 4+5 for one victim: reduce the live list, record list-size
  /// telemetry and the cardinality-i winner. Parallel-safe per level.
  static void reduce(const QueryContext& ctx, net::NetId v, std::size_t i,
                     PruneStats* prune_out, std::size_t* max_list_out);

  /// Elimination only: snapshots a dirty victim's sweep-0 list for the next
  /// query and publishes its current winner into ctx.ho_snap (the current-
  /// sweep buffer) for higher-order reads. Writes only victim-owned slots,
  /// so the task-graph sweep fuses it onto the end of each victim's task —
  /// an a -> v edge guarantees `a`'s publication precedes any current-sweep
  /// read by `v`.
  static void publish_one(const QueryContext& ctx, net::NetId v,
                          std::size_t i, int sweep);

  /// Elimination only, called at the end of each level of a warm sweep
  /// with the FULL level (clean victims included): publish_one over the
  /// level. Serial, on the orchestrating thread.
  static void publish(const QueryContext& ctx,
                      std::span<const net::NetId> level, std::size_t i,
                      int sweep);
};

}  // namespace tka::topk::stages
