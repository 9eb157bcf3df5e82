#include "topk/stages/prune_stage.hpp"

#include <algorithm>

namespace tka::topk::stages {

void PruneStage::reduce(const QueryContext& ctx, net::NetId v, std::size_t i,
                        PruneStats* prune_out, std::size_t* max_list_out) {
  const TopkOptions& opt = *ctx.opt;
  IList& list = ctx.memo->lists[i - 1][v];

  // Step 4: reduce to the irredundant list. The victim's own caps are
  // passed so each keeps an extension seed (see IList::reduce). Candidates
  // arrive with envelope signatures over iv[v] already attached
  // (CandidateStage), so the dominance pass inside reduce() settles most
  // pairs with the signature pre-filter.
  list.reduce(ctx.base->iv[v], opt.dominance_tol, opt.beam_cap,
              opt.use_dominance, prune_out, ctx.base->active_caps[v]);
  ctx.h_ilist->observe(static_cast<double>(list.size()));
  ctx.c_surviving->add(list.size());
  *max_list_out = std::max(*max_list_out, list.size());

  // Step 5: record the per-victim winner of this cardinality.
  if (!list.empty()) {
    const CandidateSet& best = list.best();
    ctx.memo->winner_score[v][i] = best.score;
    ctx.memo->winner_members[v][i] = best.members;
  }
}

void PruneStage::publish_one(const QueryContext& ctx, net::NetId v,
                             std::size_t i, int sweep) {
  SweepMemo& memo = *ctx.memo;
  // Snapshot a dirty victim's end-of-sweep-0 list so the *next* query's
  // dirty victims can replay their sweep-0 reads of this (then clean)
  // fanin exactly.
  if (sweep == 0 && memo.retain && ctx.is_dirty(v)) {
    const std::span<const CandidateSet> live = memo.lists[i - 1][v].sets();
    memo.sweep0[i - 1][v].assign(live.begin(), live.end());
  }
  // Publish the victim's winner for elimination's higher-order reads.
  // Clean victims expose their memoized state for this sweep (sets_of).
  const std::span<const CandidateSet> view = ctx.sets_of(v, i, sweep);
  BestSnap& s = (*ctx.ho_snap)[v];
  if (view.empty()) {
    s.valid = false;
    return;
  }
  const CandidateSet* best = best_of(view);
  s.valid = true;
  s.score = best->score;
  s.members = best->members;
}

}  // namespace tka::topk::stages
