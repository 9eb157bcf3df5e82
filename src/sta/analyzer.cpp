#include "sta/analyzer.hpp"

#include <limits>

#include "net/topo.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace tka::sta {

void set_worst_po(const net::Netlist& nl, StaResult* state) {
  state->max_lat = -std::numeric_limits<double>::infinity();
  state->worst_po = net::kInvalidNet;
  for (net::NetId id : nl.primary_outputs()) {
    if (state->windows[id].lat > state->max_lat) {
      state->max_lat = state->windows[id].lat;
      state->worst_po = id;
    }
  }
  if (state->worst_po == net::kInvalidNet) {
    // No declared primary outputs: fall back to the globally latest net.
    for (net::NetId id = 0; id < nl.num_nets(); ++id) {
      if (state->windows[id].lat > state->max_lat) {
        state->max_lat = state->windows[id].lat;
        state->worst_po = id;
      }
    }
  }
}

StaResult run_sta(const net::Netlist& nl, const DelayModel& model,
                  const StaOptions& options, const std::vector<double>* lat_bump) {
  if (lat_bump != nullptr) TKA_ASSERT(lat_bump->size() == nl.num_nets());
  obs::ScopedSpan span("sta.run");
  static obs::Counter& c_runs = obs::registry().counter("sta.runs");
  static obs::Histogram& h_seconds =
      obs::registry().histogram("sta.run_seconds", 1e-6, 100.0);
  obs::ScopedHistogramTimer timer(h_seconds);
  c_runs.add(1);

  StaResult result;
  result.windows.assign(nl.num_nets(), TimingWindow{});
  result.gate_delay.assign(nl.num_gates(), 0.0);
  result.gate_trans.assign(nl.num_gates(), 0.0);

  for (net::GateId g = 0; g < nl.num_gates(); ++g) {
    result.gate_delay[g] = model.gate_delay_ns(g);
    result.gate_trans[g] = model.gate_trans_ns(g);
  }

  const double* bump = lat_bump != nullptr ? lat_bump->data() : nullptr;
  for (net::NetId id : net::topological_nets(nl)) {
    compute_window(nl, model, options, result, bump, id, &result.windows[id]);
  }
  set_worst_po(nl, &result);
  return result;
}

}  // namespace tka::sta
