#include "topk/stages/candidate_stage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace tka::topk::stages {
namespace {

constexpr double kShiftEps = 1e-9;  // ignore sub-picosecond pseudo shifts

// Per-victim candidate-generation ceiling. Only reachable when both
// dominance pruning and the beam cap are disabled (the blow-up the paper's
// §3.2 prevents); keeps such runs bounded instead of exhausting memory.
constexpr std::size_t kGenerationCap = 40000;

// The seed of cardinality 1: the single empty set.
const CandidateSet kEmptySeed{};

}  // namespace

double CandidateStage::score_env(const QueryContext& ctx, net::NetId v,
                                 const wave::Pwl& env) {
  const BaselineState& b = *ctx.base;
  if (ctx.addition) {
    return noise::delay_noise(b.vic_wave[v], env, b.vdd, b.vic_t50[v]);
  }
  // Elimination uses the *signed* residual shift: removing pseudo
  // aggressors can move the transition earlier than the local-noiseless
  // reference, and that benefit must not be clamped away.
  const double residual = noise::delay_shift(
      b.vic_wave[v], b.total_env[v].minus(env), b.vdd, b.vic_t50[v]);
  return std::max(0.0, b.dn_total[v] - residual);
}

void CandidateStage::generate(const QueryContext& ctx, net::NetId v,
                              std::size_t i, int sweep) {
  const TopkOptions& opt = *ctx.opt;
  const BaselineState& base = *ctx.base;
  const net::Netlist& nl = *ctx.design.nl;
  const sta::WindowTable& windows = *base.windows;
  noise::EnvelopeBuilder& builder = *base.builder;
  SweepMemo& memo = *ctx.memo;
  const bool addition = ctx.addition;

  std::vector<layout::CapId> tmp_members;
  obs::ScopedSpan victim_span("topk.victim");
  if (victim_span.recording()) {
    victim_span.arg("net", nl.net(v).name)
        .arg("i", static_cast<std::int64_t>(i))
        .arg("sweep", static_cast<std::int64_t>(sweep));
  }
  IList& list = memo.lists[i - 1][v];
  // Every candidate built below carries its envelope signature over the
  // victim's dominance interval, so PruneStage's dominance pass can settle
  // most pairs with signature compares alone (docs/KERNELS.md).
  const wave::DominanceInterval& iv = base.iv[v];
  if (sweep == 0) {
    list.clear();
    // A stale winner from the last query must not survive an empty rebuild.
    memo.winner_score[v][i] = -1.0;
    memo.winner_members[v][i].clear();
  }

  // Step 1: extend I-list_{i-1} with one additional primary aggressor.
  if (base.full_victim[v]) {
    const std::span<const CandidateSet> prev =
        i == 1 ? std::span<const CandidateSet>(&kEmptySeed, 1)
               : memo.lists[i - 2][v].sets();
    for (const CandidateSet& s : prev) {
      if (list.size() >= kGenerationCap) {
        ctx.c_gen_cap->add(1);
        if (log::enabled(log::Level::kDebug)) {
          log::debug() << "topk: victim " << nl.net(v).name
                       << " hit the generation cap at cardinality " << i;
        }
        break;
      }
      for (layout::CapId cap : base.active_caps[v]) {
        const wave::Pwl& cap_env = builder.envelope(v, cap);
        if (cap_env.empty()) continue;
        if (!union_with(s.members, cap, tmp_members)) continue;
        CandidateSet cand;
        cand.members = tmp_members;
        cand.envelope = s.envelope.plus(cap_env);
        if (cand.envelope.size() > 24) {
          cand.envelope = cand.envelope.simplified(opt.envelope_tol);
        }
        cand.score = score_env(ctx, v, cand.envelope);
        cand.sig = wave::make_signature(cand.envelope, iv);
        ctx.c_sets->add(1);
        list.try_add(std::move(cand));
      }
    }
  }

  const net::Net& n = nl.net(v);

  // Step 2: pseudo input aggressors of cardinality i from each fanin.
  if (opt.use_pseudo && n.driver != net::kInvalidGate) {
    const net::Gate& g = nl.gate(n.driver);
    std::vector<double> fanin_lats;
    fanin_lats.reserve(g.inputs.size());
    for (net::NetId in : g.inputs) fanin_lats.push_back(windows[in].lat);
    const double trans = std::max(windows[v].trans_late, 1e-4);
    auto add_pseudo = [&](std::vector<layout::CapId> members, double shift) {
      if (shift <= kShiftEps) return;
      CandidateSet cand;
      cand.members = std::move(members);
      cand.envelope =
          pseudo_envelope(base.vic_t50[v], trans, base.vdd, shift, opt.mode);
      // A propagated set can also couple the victim directly; both effects
      // are real and additive, so fold the local envelopes of any member
      // that is a primary of v into the pseudo envelope.
      for (layout::CapId cap : base.active_caps[v]) {
        if (!std::binary_search(cand.members.begin(), cand.members.end(),
                                cap)) {
          continue;
        }
        const wave::Pwl& ce = builder.envelope(v, cap);
        if (!ce.empty()) cand.envelope = cand.envelope.plus(ce);
      }
      if (cand.envelope.size() > 24) {
        cand.envelope = cand.envelope.simplified(opt.envelope_tol);
      }
      cand.score = score_env(ctx, v, cand.envelope);
      cand.sig = wave::make_signature(cand.envelope, iv);
      ctx.c_sets->add(1);
      list.try_add(std::move(cand));
    };
    // Fanins are inputs, so their current-cardinality lists are complete
    // when this task starts (clean fanins expose their memoized state
    // through sets_of).
    for (std::size_t j = 0; j < g.inputs.size(); ++j) {
      const net::NetId u = g.inputs[j];
      const std::span<const CandidateSet> us = ctx.sets_of(u, i, sweep);
      if (us.empty()) continue;
      const std::size_t take = opt.propagate_full_ilist ? us.size() : 1;
      for (std::size_t si = 0; si < take; ++si) {
        const CandidateSet& s =
            opt.propagate_full_ilist ? us[si] : *best_of(us);
        const double shift =
            propagate_shift(fanin_lats, j, std::max(s.score, 0.0), opt.mode);
        add_pseudo(s.members, shift);
      }
    }
    // Elimination on reconvergent logic, part 1: the same member set often
    // reduces several fanins at once (shared fanin cones; a cap's two
    // victim sides). Gather identical sets across fanins and apply all
    // their reductions jointly before the max-clamp.
    if (!addition && g.inputs.size() >= 2) {
      struct Joint {
        const std::vector<layout::CapId>* members = nullptr;
        std::vector<std::pair<std::size_t, double>> reductions;  // fanin, rho
      };
      std::unordered_map<std::uint64_t, Joint> joint;
      for (std::size_t j = 0; j < g.inputs.size(); ++j) {
        const net::NetId u = g.inputs[j];
        for (const CandidateSet& s : ctx.sets_of(u, i, sweep)) {
          if (s.score <= kShiftEps) continue;
          Joint& entry = joint[members_hash(s.members)];
          if (entry.members != nullptr && *entry.members != s.members) {
            continue;  // hash collision; drop the rarer set
          }
          entry.members = &s.members;
          entry.reductions.emplace_back(j, s.score);
        }
      }
      double max_lat = -std::numeric_limits<double>::infinity();
      for (double lat : fanin_lats) max_lat = std::max(max_lat, lat);
      for (const auto& [hash, entry] : joint) {
        if (entry.reductions.size() < 2) continue;  // singles done above
        std::vector<double> lats = fanin_lats;
        for (const auto& [j, rho] : entry.reductions) lats[j] -= rho;
        double new_max = -std::numeric_limits<double>::infinity();
        for (double lat : lats) new_max = std::max(new_max, lat);
        add_pseudo(*entry.members, std::max(0.0, max_lat - new_max));
      }
    }
    // Elimination on reconvergent logic, part 2: speeding up one fanin is
    // clamped by the other's arrival, so also form balanced unions of the
    // two latest fanins' winner sets (cardinality j + (i-j)).
    if (!addition && g.inputs.size() >= 2 && i >= 2) {
      std::size_t a_idx = 0;
      std::size_t b_idx = 1;
      if (fanin_lats[b_idx] > fanin_lats[a_idx]) std::swap(a_idx, b_idx);
      for (std::size_t j = 2; j < g.inputs.size(); ++j) {
        if (fanin_lats[j] > fanin_lats[a_idx]) {
          b_idx = a_idx;
          a_idx = j;
        } else if (fanin_lats[j] > fanin_lats[b_idx]) {
          b_idx = j;
        }
      }
      const net::NetId ua = g.inputs[a_idx];
      const net::NetId ub = g.inputs[b_idx];
      for (std::size_t j = 1; j < i; ++j) {
        const double ra = memo.winner_score[ua][j];
        const double rb = memo.winner_score[ub][i - j];
        if (ra <= kShiftEps || rb <= kShiftEps) continue;
        if (!union_disjoint(memo.winner_members[ua][j],
                            memo.winner_members[ub][i - j], tmp_members)) {
          continue;
        }
        double new_max = -std::numeric_limits<double>::infinity();
        for (std::size_t fi = 0; fi < g.inputs.size(); ++fi) {
          double lat = fanin_lats[fi];
          if (fi == a_idx) lat -= ra;
          if (fi == b_idx) lat -= rb;
          new_max = std::max(new_max, lat);
        }
        double max_lat = -std::numeric_limits<double>::infinity();
        for (double lat : fanin_lats) max_lat = std::max(max_lat, lat);
        add_pseudo(tmp_members, std::max(0.0, max_lat - new_max));
      }
    }
  }

  // Step 3: higher-order aggressors of cardinality i.
  if (opt.use_higher_order && base.full_victim[v] && i >= 2) {
    for (layout::CapId cap : base.active_caps[v]) {
      const net::NetId a = ctx.design.par->coupling(cap).other(v);
      if (addition) {
        // The aggressor's own worst (i-1)-set widens its window.
        const double widen = memo.winner_score[a][i - 1];
        if (widen <= kShiftEps) continue;
        if (!union_with(memo.winner_members[a][i - 1], cap, tmp_members)) {
          continue;
        }
        CandidateSet cand;
        cand.members = tmp_members;
        cand.envelope = builder.envelope_widened(v, cap, widen)
                            .simplified(opt.envelope_tol);
        cand.score = score_env(ctx, v, cand.envelope);
        cand.sig = wave::make_signature(cand.envelope, iv);
        ctx.c_sets->add(1);
        list.try_add(std::move(cand));
      } else {
        // Elimination: removing the aggressor's own worst i-set narrows the
        // aggressor window; the removed envelope is the trim of this cap's
        // envelope (the cap itself stays). Reads the aggressor's published
        // snapshot (PruneStage::publish_one): the current sweep's when `a`'s
        // level precedes `v`'s, the previous sweep's otherwise (see
        // QueryContext::ho_of).
        const BestSnap& s = ctx.ho_of(a, v);
        if (!s.valid || s.score <= kShiftEps) continue;
        if (std::binary_search(s.members.begin(), s.members.end(), cap)) {
          continue;
        }
        const wave::Pwl& full_env = builder.envelope(v, cap);
        // Narrowed window: the aggressor's noisy LAT retreats by the
        // reduction; rebuild with a negative extension via the base
        // (noiseless-LAT) envelope widened by the remaining noise.
        const wave::Pwl narrowed = builder.envelope_widened(v, cap, -s.score)
                                       .simplified(opt.envelope_tol);
        wave::Pwl diff = full_env.minus(narrowed).clamped(0.0, base.vdd);
        if (diff.peak() <= 1e-9) continue;
        CandidateSet cand;
        cand.members = s.members;
        cand.envelope = diff.simplified(opt.envelope_tol);
        cand.score = score_env(ctx, v, cand.envelope);
        cand.sig = wave::make_signature(cand.envelope, iv);
        ctx.c_sets->add(1);
        list.try_add(std::move(cand));
      }
    }
  }
}

}  // namespace tka::topk::stages
