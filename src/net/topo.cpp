#include "net/topo.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace tka::net {

std::vector<NetId> topological_nets(const Netlist& nl) {
  const size_t n = nl.num_nets();
  // In-degree of a net = number of fanin nets of its driver gate.
  std::vector<int> indeg(n, 0);
  for (NetId i = 0; i < n; ++i) {
    const Net& net = nl.net(i);
    if (net.driver != kInvalidGate) {
      indeg[i] = static_cast<int>(nl.gate(net.driver).inputs.size());
    }
  }
  std::deque<NetId> ready;
  for (NetId i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  std::vector<NetId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NetId cur = ready.front();
    ready.pop_front();
    order.push_back(cur);
    for (const PinRef& p : nl.net(cur).fanouts) {
      const NetId out = nl.gate(p.gate).output;
      if (--indeg[out] == 0) ready.push_back(out);
    }
  }
  if (order.size() != n) throw Error("topological_nets: combinational cycle detected");
  return order;
}

std::vector<int> net_levels(const Netlist& nl) {
  std::vector<int> level(nl.num_nets(), 0);
  for (NetId id : topological_nets(nl)) {
    const Net& net = nl.net(id);
    if (net.driver == kInvalidGate) {
      level[id] = 0;
      continue;
    }
    int lv = 0;
    for (NetId in : nl.gate(net.driver).inputs) lv = std::max(lv, level[in]);
    level[id] = lv + 1;
  }
  return level;
}

}  // namespace tka::net
