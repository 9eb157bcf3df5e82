// Route estimation: every net is routed as a set of L-shapes (one
// horizontal + one vertical segment per sink) from the driver pin. This is
// the standard pre-route coupling estimate; the extractor measures
// parallel-run overlap between the resulting segments.
#pragma once

#include "layout/geometry.hpp"
#include "layout/placer.hpp"
#include "net/netlist.hpp"

namespace tka::layout {

/// All wire segments of one net, in sink order: the flat list the
/// extractor consumes.
struct Route {
  net::NetId net = net::kInvalidNet;
  std::vector<Segment> segments;

  double total_length() const;
};

/// Routes every net as driver-to-sink L-shapes (horizontal first).
std::vector<Route> route_all(const net::Netlist& nl, const Placement& placement);

}  // namespace tka::layout
