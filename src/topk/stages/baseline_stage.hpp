// BaselineStage: the fixpoints and every per-victim derived quantity the
// enumeration stages read (windows, envelopes, active coupling lists,
// dominance intervals, slack gates).
//
// prime() builds the whole state cold — counter-for-counter identical to
// the setup the monolithic engine used to run. refresh() re-converges the
// fixpoint incrementally after a design edit, recomputes only the derived
// entries inside the edit's influence region, and reports the victims whose
// enumeration inputs changed so the session can scope the remaining stages
// to the affected fanout cone.
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
  // Shared by prime (baseline_stage.cpp) and refresh (baseline_refresh.cpp).
  static void derive_victim(const TopkOptions& opt, BaselineState* state,
                            net::NetId v);
  static void build_active_caps(const DesignRef& design, const TopkOptions& opt,
                                BaselineState* state, net::NetId v,
                                std::vector<layout::CapId>* out);
  static void truncate_active(const DesignRef& design, const TopkOptions& opt,
                              std::vector<layout::CapId>* caps);
  static void propagate_ub(const DesignRef& design, BaselineState* state);
  static void rebuild_intervals(BaselineState* state);
  static void rebuild_caps_by_size(const DesignRef& design,
                                   BaselineState* state);
};

}  // namespace tka::topk::stages
