// BaselineStage: the fixpoints and every per-victim quantity the
// enumeration stages derive from them (windows, envelopes, active coupling
// lists with false aggressors dropped, dominance intervals, slack gates).
//
// prime() builds the state cold for a run; refresh() re-converges the
// fixpoint incrementally after a design edit and reports the victims whose
// enumeration inputs changed, so the session can scope the remaining stages
// to the affected fanout cone. Both derive the per-victim state through one
// pass over a region of victims: every net for prime, the edit's influence
// region for refresh.
#pragma once

#include <span>

#include "topk/stages/stage_context.hpp"

namespace tka::topk::stages {

class BaselineStage {
 public:
  /// Circuit delay with exactly `members` coupled (addition) or `members`
  /// removed from the full set (elimination), via the iterative fixpoint.
  /// The single source of truth for set evaluation: the engine, the brute
  /// force reference and the benches all call this.
  static double masked_delay(const DesignRef& design,
                             std::span<const layout::CapId> members, Mode mode,
                             const noise::IterativeOptions& iterative);

  /// Cold build of the full baseline state.
  static void prime(const DesignRef& design, const TopkOptions& opt,
                    const noise::IterativeOptions& iter_opt,
                    BaselineState* state);

  /// Incremental rebuild after a design edit. `edit_nets` are nets whose
  /// local electrical inputs changed (driver resize endpoints, coupling
  /// endpoints); `edit_caps` are the edited couplings. Appends to *seeds
  /// every net whose enumeration inputs changed (the session closes this
  /// set over fanout and coupling edges). Requires a primed state.
  static void refresh(const DesignRef& design, const TopkOptions& opt,
                      std::span<const net::NetId> edit_nets,
                      std::span<const layout::CapId> edit_caps,
                      BaselineState* state, std::vector<net::NetId>* seeds);

 private:
  /// Rebuilds the per-victim state of every `region` victim on the query's
  /// threads, deciding its false aggressors (noise::is_false_aggressor)
  /// when the filter is on, then the whole-design quantities (cumulative
  /// bounds and intervals, slack gate, cap order, sinks). Appends to
  /// *moved, when given, every net whose interval or slack-gate verdict
  /// changed. Returns how many of the region victims' coupling sides it
  /// dropped: zeroed, or false aggressors when the filter is on.
  static std::size_t derive(const DesignRef& design, const TopkOptions& opt,
                            std::span<const net::NetId> region,
                            BaselineState* state,
                            std::vector<net::NetId>* moved);
};

}  // namespace tka::topk::stages
