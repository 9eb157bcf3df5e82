// Topological utilities over the netlist DAG: net ordering and
// levelization. The top-k propagation (paper §3.1) walks victims strictly
// in topological net order.
#pragma once

#include <vector>

#include "net/netlist.hpp"

namespace tka::net {

/// Nets in topological order (every net appears after all nets in its
/// driver gate's fanin). Throws tka::Error on a combinational cycle.
std::vector<NetId> topological_nets(const Netlist& nl);

/// Logic level per net: primary inputs are level 0; a gate output is
/// 1 + max(level of fanins).
std::vector<int> net_levels(const Netlist& nl);

}  // namespace tka::net
