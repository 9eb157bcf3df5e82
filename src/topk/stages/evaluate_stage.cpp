#include "topk/stages/evaluate_stage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "runtime/runtime.hpp"

namespace tka::topk::stages {

EvaluateStage::EvaluateStage(QueryContext* ctx) : ctx_(ctx) {
  const sta::WindowTable& windows = *ctx_->base->windows;
  hot_pos_ = ctx_->base->sinks;
  std::sort(hot_pos_.begin(), hot_pos_.end(),
            [&](net::NetId a, net::NetId b) {
              return windows[a].lat > windows[b].lat;
            });
  if (hot_pos_.size() > kSinkPoLimit) hot_pos_.resize(kSinkPoLimit);
  sink_lists_.resize(ctx_->k + 1);
}

double EvaluateStage::sink_est_delay(const SinkSet& s) const {
  const sta::WindowTable& windows = *ctx_->base->windows;
  double worst = 0.0;
  for (net::NetId q : ctx_->base->sinks) {
    double red = 0.0;
    for (const auto& [p, r] : s.per_po) {
      if (p == q) red = r;
    }
    worst = std::max(worst, windows[q].lat - red);
  }
  return worst;
}

// A winning set of cardinality j < i is still the best exactly-i choice
// when a victim's couplings run out — the budget is completed with the
// largest unused caps (adding more aggressors never lowers the addition
// delay; removing more never raises the elimination one).
std::vector<layout::CapId> EvaluateStage::pad_to(
    std::vector<layout::CapId> members, std::size_t card) const {
  // Swap rather than move so the displaced members buffer becomes the next
  // iteration's scratch instead of a fresh allocation per cap.
  std::vector<layout::CapId> merged;
  for (layout::CapId id : ctx_->base->caps_by_size) {
    if (members.size() >= card) break;
    if (union_with(members, id, merged)) std::swap(members, merged);
  }
  return members;
}

void EvaluateStage::select(std::size_t i) {
  const BaselineState& base = *ctx_->base;
  const sta::WindowTable& windows = *base.windows;
  SweepMemo& memo = *ctx_->memo;
  TopkResult& result = *ctx_->result;
  const std::vector<IList>& cur = memo.lists[i - 1];
  const bool addition = ctx_->addition;

  double best_delay = addition ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity();
  std::vector<layout::CapId> best_set;
  std::vector<std::vector<layout::CapId>> finalists;
  double circuit_floor = 0.0;  // arrival of POs unaffected by the set
  for (net::NetId p : base.sinks) {
    circuit_floor = std::max(circuit_floor, windows[p].lat);
  }

  if (addition) {
    std::vector<std::pair<double, const CandidateSet*>> ranked;
    for (net::NetId p : base.sinks) {
      // A PO's best set of any cardinality j <= i is a valid exactly-i
      // choice once padded (pad_to); lower-j winners matter when the PO's
      // cone runs out of distinct couplings.
      for (std::size_t j = 1; j <= i; ++j) {
        if (memo.winner_score[p][j] < 0.0) continue;
        const double arrival = windows[p].lat + memo.winner_score[p][j];
        if (arrival > best_delay) {
          best_delay = arrival;
          best_set = memo.winner_members[p][j];
        }
      }
      if (cur[p].empty()) continue;
      const CandidateSet& s = cur[p].best();
      ranked.emplace_back(windows[p].lat + s.score, &s);
    }
    if (!ctx_->opt->use_pseudo) {
      // Flat fallback: local noise assumed to propagate unclamped along the
      // victim's worst path (arrival = max_lat - slack + dn).
      const std::size_t num_nets = ctx_->design.nl->num_nets();
      for (net::NetId v = 0; v < num_nets; ++v) {
        if (cur[v].empty() || !std::isfinite(base.base_slack[v])) continue;
        const CandidateSet& s = cur[v].best();
        const double arrival = circuit_floor - base.base_slack[v] + s.score;
        ranked.emplace_back(arrival, &s);
        if (arrival > best_delay) {
          best_delay = arrival;
          best_set = s.members;
        }
      }
    }
    // Finalists: the best arrivals, the earlier entry winning ties.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    if (ranked.size() > kFinalists) ranked.resize(kFinalists);
    for (const auto& entry : ranked) finalists.push_back(entry.second->members);
    if (best_set.empty()) {
      // No cardinality-i set anywhere (tiny design / large i): keep the
      // previous cardinality's choice — a k'-set is a valid k-set choice.
      best_delay = result.estimated_delay_by_k.empty()
                       ? circuit_floor
                       : result.estimated_delay_by_k.back();
      if (!result.set_by_k.empty()) best_set = result.set_by_k.back();
    }
    best_delay = std::max(best_delay, circuit_floor);
  } else {
    // Build the virtual-sink list of cardinality i: single-PO sets plus
    // unions of a lower-cardinality sink set with another PO's set.
    std::vector<SinkSet>& slist = sink_lists_[i];
    std::vector<layout::CapId> merged;
    auto push_sink = [&](SinkSet s) {
      s.est_delay = sink_est_delay(s);
      slist.push_back(std::move(s));
    };
    for (net::NetId p : hot_pos_) {
      for (const CandidateSet& s : cur[p].sets()) {
        SinkSet ss;
        ss.members = s.members;
        ss.per_po = {{p, std::max(s.score, 0.0)}};
        push_sink(std::move(ss));
      }
    }
    for (std::size_t j = 1; j < i; ++j) {
      for (const SinkSet& base_set : sink_lists_[j]) {
        for (net::NetId p : hot_pos_) {
          bool has_p = false;
          for (const auto& [q, r] : base_set.per_po) has_p |= (q == p);
          if (has_p) continue;  // same-PO compositions live in cur[p]
          for (const CandidateSet& s : cur[p].sets()) {
            if (s.members.size() != i - j) continue;
            if (!union_disjoint(base_set.members, s.members, merged)) continue;
            SinkSet ss;
            ss.members = merged;
            ss.per_po = base_set.per_po;
            ss.per_po.emplace_back(p, std::max(s.score, 0.0));
            push_sink(std::move(ss));
          }
        }
      }
    }
    // Aggregate identical member-sets: one coupling set can reduce several
    // POs at once (every cap has two victim sides), so merge per-PO
    // reductions (max per PO) before scoring.
    std::sort(slist.begin(), slist.end(),
              [](const SinkSet& a, const SinkSet& b) {
                return a.members < b.members;
              });
    std::vector<SinkSet> merged_list;
    for (SinkSet& s : slist) {
      if (!merged_list.empty() && merged_list.back().members == s.members) {
        SinkSet& dst = merged_list.back();
        for (const auto& [p, r] : s.per_po) {
          bool found = false;
          for (auto& [q, rq] : dst.per_po) {
            if (q == p) {
              rq = std::max(rq, r);
              found = true;
            }
          }
          if (!found) dst.per_po.emplace_back(p, r);
        }
      } else {
        merged_list.push_back(std::move(s));
      }
    }
    for (SinkSet& s : merged_list) s.est_delay = sink_est_delay(s);
    std::sort(merged_list.begin(), merged_list.end(),
              [](const SinkSet& a, const SinkSet& b) {
                if (a.est_delay != b.est_delay) return a.est_delay < b.est_delay;
                return a.members < b.members;
              });
    if (merged_list.size() > kSinkBeam) merged_list.resize(kSinkBeam);
    slist = std::move(merged_list);
    if (!slist.empty()) {
      best_delay = slist.front().est_delay;
      best_set = slist.front().members;
      for (const SinkSet& s : slist) {
        if (finalists.size() >= kFinalists) break;
        finalists.push_back(s.members);
      }
      // Removing one more coupling never hurts: keep the curve monotone
      // when the exact-cardinality list happens to be worse than a
      // lower-cardinality choice.
      if (!result.estimated_delay_by_k.empty() &&
          result.estimated_delay_by_k.back() < best_delay) {
        best_delay = result.estimated_delay_by_k.back();
        best_set = result.set_by_k.back();
      }
    } else {
      best_delay = result.estimated_delay_by_k.empty()
                       ? circuit_floor
                       : result.estimated_delay_by_k.back();
      if (!result.set_by_k.empty()) best_set = result.set_by_k.back();
    }
  }
  result.set_by_k.push_back(pad_to(std::move(best_set), i));
  result.estimated_delay_by_k.push_back(best_delay);
  result.finalists_by_k.push_back(std::move(finalists));
}

void EvaluateStage::finalize() {
  const TopkOptions& opt = *ctx_->opt;
  TopkResult& result = *ctx_->result;
  if (!opt.reevaluate || result.members.empty()) return;
  const bool addition = ctx_->addition;
  const std::size_t k = ctx_->k;

  obs::ScopedSpan reevaluate_span("topk.reevaluate");
  result.evaluated_delay = ctx_->evaluate(result.members, ctx_->iter_opt);
  if (opt.rerank_top == 0) return;

  // Exact re-ranking: the estimator is first-order (it does not re-run the
  // window fixpoint per candidate), so evaluate the best few
  // final-cardinality candidates across all sinks and keep the true
  // optimum.
  std::vector<const std::vector<layout::CapId>*> finalists;
  if (addition) {
    std::vector<const CandidateSet*> cands;
    for (net::NetId p : ctx_->base->sinks) {
      std::size_t taken = 0;
      for (const CandidateSet& s : ctx_->memo->lists[k - 1][p].sets()) {
        if (s.members.empty() || s.members == result.members) continue;
        cands.push_back(&s);
        if (++taken >= opt.rerank_top) break;
      }
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const CandidateSet* a, const CandidateSet* b) {
                       return a->score > b->score;
                     });
    if (cands.size() > opt.rerank_top) cands.resize(opt.rerank_top);
    for (const CandidateSet* s : cands) finalists.push_back(&s->members);
  } else {
    // Sink lists are already sorted best-first.
    for (const SinkSet& s : sink_lists_[k]) {
      if (s.members == result.members) continue;
      finalists.push_back(&s.members);
      if (finalists.size() >= opt.rerank_top) break;
    }
  }
  // Evaluate finalists on work-stealing chunks of one — full fixpoints
  // vary enough in iteration count that static chunking strands the lane
  // with the slow ones (each fixpoint itself runs serial to avoid
  // oversubscription). Per-slot writes; the winner is picked below in
  // index order so the strict-better / first-wins tie-breaking matches
  // the serial loop.
  noise::IterativeOptions finalist_opt = ctx_->iter_opt;
  finalist_opt.threads = 1;
  std::vector<double> finalist_delay(finalists.size(), 0.0);
  runtime::parallel_for(
      ctx_->threads, 0, finalists.size(),
      [&](std::size_t fi) {
        finalist_delay[fi] = ctx_->evaluate(*finalists[fi], finalist_opt);
      },
      /*grain=*/1);
  for (std::size_t fi = 0; fi < finalists.size(); ++fi) {
    const double d = finalist_delay[fi];
    const bool better =
        addition ? d > result.evaluated_delay : d < result.evaluated_delay;
    if (better) {
      result.evaluated_delay = d;
      result.members = *finalists[fi];
    }
  }
}

}  // namespace tka::topk::stages
