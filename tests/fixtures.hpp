// Shared hand-crafted circuit fixtures for noise and top-k tests: parallel
// buffer chains with explicitly placed coupling caps and controllable
// input arrivals, bypassing the placer/extractor so electrical conditions
// are exact and easy to reason about.
#pragma once

#include <memory>
#include <vector>

#include "layout/parasitics.hpp"
#include "net/netlist.hpp"
#include "sta/analyzer.hpp"
#include "util/string_util.hpp"

namespace tka::test {

/// A design with explicit parasitics and arrivals.
struct Fixture {
  std::unique_ptr<net::Netlist> netlist;
  layout::Parasitics parasitics{0};
  std::vector<sta::InputArrival> arrivals;  // by net id

  sta::StaOptions sta_options() const {
    sta::StaOptions opt;
    const std::vector<sta::InputArrival>* table = &arrivals;
    opt.input_arrival = [table](net::NetId n) {
      return n < table->size() ? (*table)[n] : sta::InputArrival{};
    };
    return opt;
  }
};

/// Builds `num_chains` parallel BUFX1 chains of `length` gates each. Chain
/// c's nets are named "c<c>_n<i>" (i = 0..length-1); its PI is "c<c>_in".
/// Every net gets `gcap` pF to ground and `res` kOhm of wire.
inline Fixture make_parallel_chains(int num_chains, int length,
                                    double gcap = 0.010, double res = 0.05) {
  Fixture fx;
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  fx.netlist = std::make_unique<net::Netlist>(lib, "chains");
  const size_t buf = lib.index_of("BUFX1");
  for (int c = 0; c < num_chains; ++c) {
    net::NetId cur = fx.netlist->add_primary_input(str::format("c%d_in", c));
    for (int i = 0; i < length; ++i) {
      cur = fx.netlist->add_gate(buf, {cur}, str::format("c%d_g%d", c, i),
                                 str::format("c%d_n%d", c, i));
    }
    fx.netlist->mark_primary_output(cur);
  }
  fx.parasitics = layout::Parasitics(fx.netlist->num_nets());
  for (net::NetId n = 0; n < fx.netlist->num_nets(); ++n) {
    fx.parasitics.add_ground_cap(n, gcap);
    fx.parasitics.add_wire_res(n, res);
  }
  fx.arrivals.assign(fx.netlist->num_nets(), sta::InputArrival{});
  return fx;
}

/// Sets the arrival window of the named primary input.
inline void set_arrival(Fixture& fx, const std::string& pi_name, double eat,
                        double lat) {
  const net::NetId n = fx.netlist->net_by_name(pi_name);
  fx.arrivals[n] = {eat, lat};
}

/// Adds a coupling cap between two named nets.
inline layout::CapId couple(Fixture& fx, const std::string& a,
                            const std::string& b, double cap_pf) {
  return fx.parasitics.add_coupling(fx.netlist->net_by_name(a),
                                    fx.netlist->net_by_name(b), cap_pf);
}

}  // namespace tka::test
