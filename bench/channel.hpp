// A hand-built routing-channel design shared by the bench suites that need
// a deterministic, editable circuit (bench/whatif_repair, bench/serve_load):
// parallel BUFX1 chains in independent groups, explicit parasitics and
// staggered arrivals — no placer/extractor randomness.
//
// Lifetime note: channel_options() wires the returned TopkOptions to the
// Channel's arrival table by pointer (via sta_options()). The Channel must
// outlive every engine, session or server that was handed those options.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "layout/parasitics.hpp"
#include "net/netlist.hpp"
#include "sta/analyzer.hpp"
#include "topk/topk_engine.hpp"
#include "util/string_util.hpp"

namespace tka::bench {

/// A hand-built channel design: explicit parasitics and arrivals, no
/// placer/extractor randomness.
struct Channel {
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

/// `groups` independent regions of `chains` parallel BUFX1 chains, `depth`
/// gates deep. Neighboring chains of one group couple at three stages with
/// deterministically varied strengths; group 0 carries the strongest
/// coupling so the first repair target is unambiguous. PI arrivals are
/// staggered per chain for timing-window diversity.
inline Channel make_channel(int groups, int chains, int depth) {
  Channel ch;
  const net::CellLibrary& lib = net::CellLibrary::default_library();
  ch.netlist = std::make_unique<net::Netlist>(lib, "channel");
  const std::size_t buf = lib.index_of("BUFX1");
  std::vector<std::vector<std::vector<net::NetId>>> nets(groups);
  for (int g = 0; g < groups; ++g) {
    nets[g].resize(chains);
    for (int c = 0; c < chains; ++c) {
      const std::string stem = str::format("g%dc%d", g, c);
      net::NetId cur = ch.netlist->add_primary_input(stem + "_in");
      for (int i = 0; i < depth; ++i) {
        cur = ch.netlist->add_gate(buf, {cur}, stem + "_g" + std::to_string(i),
                                   stem + "_n" + std::to_string(i));
        nets[g][c].push_back(cur);
      }
      ch.netlist->mark_primary_output(cur);
    }
  }
  ch.parasitics = layout::Parasitics(ch.netlist->num_nets());
  for (net::NetId n = 0; n < ch.netlist->num_nets(); ++n) {
    ch.parasitics.add_ground_cap(n, 0.010);
    ch.parasitics.add_wire_res(n, 0.05);
  }
  const int stages[3] = {1, depth / 2, depth - 2};
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c + 1 < chains; ++c) {
      for (int s : stages) {
        double cap = 0.003 + 0.0015 * ((g * 7 + c * 5 + s) % 5);
        if (g == 0 && c == 0 && s == depth / 2) cap = 0.014;
        ch.parasitics.add_coupling(nets[g][c][s], nets[g][c + 1][s], cap);
      }
    }
  }
  ch.arrivals.assign(ch.netlist->num_nets(), sta::InputArrival{});
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c < chains; ++c) {
      const net::NetId pi =
          ch.netlist->net_by_name(str::format("g%dc%d_in", g, c));
      const double lat = 0.02 * ((g * 5 + c * 3) % 7);
      ch.arrivals[pi] = {lat, lat};
    }
  }
  return ch;
}

/// Engine/session options for a channel design (see the lifetime note at
/// the top of this header: `ch` must outlive users of the result).
inline topk::TopkOptions channel_options(const Channel& ch, int k) {
  topk::TopkOptions opt;
  opt.k = k;
  opt.mode = topk::Mode::kElimination;
  opt.iterative.sta = ch.sta_options();
  opt.beam_cap = 32;
  opt.reevaluate = true;  // the repair loop reports honest delays
  return opt;
}

}  // namespace tka::bench
