#include "layout/router.hpp"

namespace tka::layout {

double Route::total_length() const {
  double len = 0.0;
  for (const Segment& s : segments) len += s.length();
  return len;
}

std::vector<Route> route_all(const net::Netlist& nl, const Placement& placement) {
  std::vector<Route> routes(nl.num_nets());
  for (net::NetId n = 0; n < nl.num_nets(); ++n) {
    Route& r = routes[n];
    r.net = n;
    const XY src = placement.driver_of(nl, n);
    for (const net::PinRef& pin : nl.net(n).fanouts) {
      const XY dst = placement.gate(pin.gate);
      // L-route: horizontal run at the driver's y, then vertical drop.
      if (src.x != dst.x) r.segments.push_back(make_h(src.y, src.x, dst.x));
      if (src.y != dst.y) r.segments.push_back(make_v(dst.x, src.y, dst.y));
    }
    // A net with no fanout (dangling primary output) still gets a stub so
    // it has nonzero parasitics.
    if (r.segments.empty()) r.segments.push_back(make_h(src.y, src.x, src.x + 2.0));
  }
  return routes;
}

}  // namespace tka::layout
