// Incremental static timing. Repair loops (zero/shield a coupling, re-ask
// for the top-k set) touch a handful of nets per cycle; re-propagating only
// the affected fanout cone keeps each cycle cheap. Results are bit-exact
// with a full run_sta() over the same state — the update is a worklist
// topological sweep that stops where arrivals stop changing, and a net is
// only left untouched when recomputing it would reproduce the identical
// (bitwise) window.
#pragma once

#include <set>

#include "sta/analyzer.hpp"

namespace tka::sta {

/// Incremental wrapper around the STA propagation. The referenced netlist,
/// model and parasitics must outlive this object; parasitic values may be
/// modified externally between invalidate/update cycles.
class IncrementalSta {
 public:
  /// Adopts a previously computed `state` and the per-net LAT bumps it was
  /// computed under (`run_sta(nl, model, options)` with empty bumps for a
  /// plain start). The noise fixpoint replays recorded iterations this
  /// way: adopt the old iteration's windows, apply the new bumps and edit
  /// cone, update(). `lat_bump` may be empty (all zero).
  IncrementalSta(const net::Netlist& nl, const DelayModel& model,
                 const StaOptions& options, StaResult state,
                 std::vector<double> lat_bump);

  /// Current timing (valid after construction and after each update()).
  const StaResult& result() const { return result_; }

  /// Marks a net whose parasitics (or whose fanout pin caps) changed; its
  /// driver's delay and the downstream cone will be refreshed.
  void invalidate_net(net::NetId net);

  /// Sets the net's LAT bump (extra latest-path delay, see run_sta). The
  /// net is invalidated only when the value actually differs (exact
  /// compare), so replaying an unchanged bump vector is free.
  void set_lat_bump(net::NetId net, double bump);

  /// Re-propagates all invalidated cones. Returns the number of nets whose
  /// window actually changed; last_changed() lists them.
  size_t update();

  /// Nets whose window changed during the last update(), ascending id.
  const std::vector<net::NetId>& last_changed() const { return last_changed_; }

 private:
  /// Recomputes one net's window, dirtying its fanout when it changed;
  /// returns whether it did.
  bool recompute_net(net::NetId net);

  const net::Netlist* nl_;
  const DelayModel* model_;
  StaOptions options_;
  StaResult result_;
  std::vector<double> bump_;          // per-net LAT bump (empty = all zero)
  std::vector<int> level_;            // topological level per net
  std::set<std::pair<int, net::NetId>> dirty_;  // level-ordered worklist
  std::vector<net::NetId> last_changed_;
};

}  // namespace tka::sta
