// Static timing analysis: propagates earliest/latest arrival times (t50)
// and transitions from the primary inputs through the DAG using the linear
// delay model.
//
// The analyzer accepts an optional per-net LAT "bump" — extra latest-path
// delay injected at a net. The iterative noise engine (noise/iterative.*)
// uses bumps to fold the previous iteration's delay noise back into the
// timing windows; the top-k engine uses them to widen individual aggressor
// windows for higher-order aggressors.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "sta/delay_model.hpp"
#include "sta/timing_graph.hpp"
#include "util/assert.hpp"

namespace tka::sta {

/// Per-PI arrival specification.
struct InputArrival {
  double eat = 0.0;
  double lat = 0.0;  ///< >= eat; a nonzero spread creates window diversity
};

/// STA controls.
struct StaOptions {
  /// Arrival lookup per primary-input net; nets not present default to 0/0.
  std::function<InputArrival(net::NetId)> input_arrival;
};

/// Full STA result.
struct StaResult {
  WindowTable windows;             ///< per net
  std::vector<double> gate_delay;  ///< per gate (pin-to-pin, ns)
  std::vector<double> gate_trans;  ///< per gate output transition (ns)
  double max_lat = 0.0;            ///< worst arrival over primary outputs
  net::NetId worst_po = net::kInvalidNet;
};

/// Runs STA. `lat_bump`, when given, must have one entry per net; the value
/// is added to the net's LAT as it is computed (and propagates downstream).
StaResult run_sta(const net::Netlist& nl, const DelayModel& model,
                  const StaOptions& options = {},
                  const std::vector<double>* lat_bump = nullptr);

/// The window rule run_sta and IncrementalSta share: writes net `id`'s
/// window from `state` into `*w` — a primary input's arrival, else the
/// earliest and latest fanin arrival of its driver plus the driver's
/// gate-table delay and transition — with `lat_bump[id]` added to the LAT
/// when `lat_bump` is not null. Inline, and writing in place, so that
/// run_sta's per-net loop makes no call and no copy per net.
inline void compute_window(const net::Netlist& nl, const DelayModel& model,
                           const StaOptions& options, const StaResult& state,
                           const double* lat_bump, net::NetId id,
                           TimingWindow* w) {
  const net::Net& n = nl.net(id);
  if (n.driver == net::kInvalidGate) {
    InputArrival arr;
    if (options.input_arrival) arr = options.input_arrival(id);
    TKA_ASSERT(arr.lat >= arr.eat);
    w->eat = arr.eat;
    w->lat = arr.lat;
    w->trans_early = w->trans_late = model.pi_trans_ns(id);
  } else {
    const net::Gate& g = nl.gate(n.driver);
    double eat = std::numeric_limits<double>::infinity();
    double lat = -std::numeric_limits<double>::infinity();
    for (net::NetId in : g.inputs) {
      const TimingWindow& wi = state.windows[in];
      eat = std::min(eat, wi.eat);
      lat = std::max(lat, wi.lat);
    }
    const double d = state.gate_delay[n.driver];
    w->eat = eat + d;
    w->lat = lat + d;
    w->trans_early = w->trans_late = state.gate_trans[n.driver];
  }
  if (lat_bump != nullptr) w->lat += lat_bump[id];
  TKA_ASSERT(w->lat >= w->eat);
}

/// Sets `state`'s max_lat and worst_po from its windows: the latest primary
/// output, or the latest net when the design declares none.
void set_worst_po(const net::Netlist& nl, StaResult* state);

}  // namespace tka::sta
