#include "sta/incremental.hpp"

#include <algorithm>

#include "net/topo.hpp"
#include "util/assert.hpp"

namespace tka::sta {

IncrementalSta::IncrementalSta(const net::Netlist& nl, const DelayModel& model,
                               const StaOptions& options, StaResult state,
                               std::vector<double> lat_bump)
    : nl_(&nl),
      model_(&model),
      options_(options),
      result_(std::move(state)),
      bump_(std::move(lat_bump)) {
  TKA_ASSERT(result_.windows.size() == nl.num_nets());
  TKA_ASSERT(result_.gate_delay.size() == nl.num_gates());
  TKA_ASSERT(bump_.empty() || bump_.size() == nl.num_nets());
  level_ = net::net_levels(nl);
}

void IncrementalSta::invalidate_net(net::NetId net) {
  TKA_ASSERT(net < nl_->num_nets());
  dirty_.insert({level_[net], net});
}

void IncrementalSta::set_lat_bump(net::NetId net, double bump) {
  TKA_ASSERT(net < nl_->num_nets());
  if (bump_.empty()) {
    if (bump == 0.0) return;
    bump_.assign(nl_->num_nets(), 0.0);
  }
  if (bump_[net] == bump) return;  // exact: replaying equal bumps is free
  bump_[net] = bump;
  dirty_.insert({level_[net], net});
}

bool IncrementalSta::recompute_net(net::NetId id) {
  const net::GateId driver = nl_->net(id).driver;
  if (driver != net::kInvalidGate) {
    // Refresh the driver's delay first (its load may have changed).
    result_.gate_delay[driver] = model_->gate_delay_ns(driver);
    result_.gate_trans[driver] = model_->gate_trans_ns(driver);
  }
  TimingWindow w;
  compute_window(*nl_, *model_, options_, result_,
                 bump_.empty() ? nullptr : bump_.data(), id, &w);
  const bool changed = !(w == result_.windows[id]);
  result_.windows[id] = w;
  if (changed) {
    for (const net::PinRef& pin : nl_->net(id).fanouts) {
      const net::NetId out = nl_->gate(pin.gate).output;
      dirty_.insert({level_[out], out});
    }
  }
  return changed;
}

size_t IncrementalSta::update() {
  last_changed_.clear();
  while (!dirty_.empty()) {
    const auto [lv, id] = *dirty_.begin();
    dirty_.erase(dirty_.begin());
    if (recompute_net(id)) last_changed_.push_back(id);
  }
  std::sort(last_changed_.begin(), last_changed_.end());
  set_worst_po(*nl_, &result_);
  return last_changed_.size();
}

}  // namespace tka::sta
