#include "gen/circuit_generator.hpp"

#include <algorithm>
#include <cmath>

#include "layout/router.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace tka::gen {

sta::StaOptions GeneratedCircuit::sta_options() const {
  sta::StaOptions opt;
  const std::vector<sta::InputArrival>* table = &arrivals;
  opt.input_arrival = [table](net::NetId n) {
    return n < table->size() ? (*table)[n] : sta::InputArrival{};
  };
  return opt;
}

GeneratedCircuit generate_circuit(const GeneratorParams& p) {
  TKA_ASSERT(p.num_gates >= 1);
  Rng rng(p.seed);
  const net::CellLibrary& lib = net::CellLibrary::default_library();

  GeneratedCircuit out;
  out.name = p.name;
  out.netlist = std::make_unique<net::Netlist>(lib, p.name);
  net::Netlist& nl = *out.netlist;

  // Primary inputs.
  const int num_pi =
      std::max(4, static_cast<int>(std::lround(p.num_gates * p.pi_fraction)));
  std::vector<net::NetId> available;  // nets a new gate may read
  for (int i = 0; i < num_pi; ++i) {
    available.push_back(nl.add_primary_input("pi" + std::to_string(i)));
  }

  // Logic depth grows slowly with size so big circuits get long paths.
  const int depth = std::max(p.min_depth,
                             static_cast<int>(std::lround(8 + p.num_gates / 90.0)));
  // Gates per level: roughly uniform with random wobble.
  std::vector<int> per_level(depth, 0);
  for (int g = 0; g < p.num_gates; ++g) {
    per_level[static_cast<size_t>(rng.next_below(depth))]++;
  }

  // Candidate cells by fanin count.
  std::vector<std::vector<size_t>> cells_by_fanin(5);
  for (int nin = 1; nin <= 4; ++nin) {
    cells_by_fanin[nin] = lib.cells_with_inputs(nin);
  }

  int gate_counter = 0;
  size_t level_start = 0;  // first index in `available` of the previous level
  for (int lv = 0; lv < depth; ++lv) {
    const size_t prev_size = available.size();
    for (int g = 0; g < per_level[lv]; ++g) {
      // Fanin count biased toward 2 (typical mapped netlists).
      const double r = rng.next_double();
      int nin = r < 0.25 ? 1 : (r < 0.80 ? 2 : (r < 0.95 ? 3 : 4));
      nin = std::min<int>(nin, static_cast<int>(prev_size));
      while (cells_by_fanin[nin].empty() && nin > 1) --nin;
      const std::vector<size_t>& cands = cells_by_fanin[nin];
      const size_t cell = cands[rng.next_below(cands.size())];

      // Pick distinct fanins, biased toward the most recent level for
      // locality (short wires, realistic coupling structure).
      std::vector<net::NetId> fanins;
      int guard = 0;
      while (static_cast<int>(fanins.size()) < nin && guard++ < 200) {
        size_t idx;
        if (rng.next_bool(0.7) && prev_size > level_start) {
          idx = level_start + rng.next_below(prev_size - level_start);
        } else {
          idx = rng.next_below(prev_size);
        }
        const net::NetId cand = available[idx];
        if (std::find(fanins.begin(), fanins.end(), cand) == fanins.end()) {
          fanins.push_back(cand);
        }
      }
      if (static_cast<int>(fanins.size()) < nin) continue;  // degenerate; skip

      const net::NetId outn =
          nl.add_gate(cell, fanins, str::format("g%d", gate_counter++));
      available.push_back(outn);
    }
    level_start = prev_size;
  }

  // Primary outputs: every net without fanout — or, with single_sink, one
  // AND2 reduction tree over all dangling nets.
  if (p.single_sink) {
    std::vector<net::NetId> dangling;
    for (net::NetId n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).fanouts.empty()) dangling.push_back(n);
    }
    const size_t and2 = lib.index_of("AND2X1");
    int sink_counter = 0;
    while (dangling.size() > 1) {
      std::vector<net::NetId> next;
      for (size_t i = 0; i + 1 < dangling.size(); i += 2) {
        next.push_back(nl.add_gate(and2, {dangling[i], dangling[i + 1]},
                                   "sink" + std::to_string(sink_counter++)));
      }
      if (dangling.size() % 2 == 1) next.push_back(dangling.back());
      dangling = std::move(next);
    }
    nl.mark_primary_output(dangling.front());
  } else {
    for (net::NetId n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).fanouts.empty()) nl.mark_primary_output(n);
    }
  }
  nl.validate();

  // Place, route, extract.
  layout::PlacerOptions placer = p.placer;
  placer.seed = p.seed ^ 0x9E3779B97F4A7C15ULL;
  const layout::Placement placement = layout::grid_place(nl, placer);
  const std::vector<layout::Route> routes = layout::route_all(nl, placement);
  layout::ExtractorOptions ex = p.extractor;
  ex.max_couplings = p.target_couplings;
  out.parasitics = layout::extract(nl, routes, ex);

  // Randomized input arrivals -> diverse timing windows. The spread scales
  // with the circuit's own noiseless delay so window diversity stays
  // proportionally realistic across design sizes. Each PI draws from its
  // own counter-based stream Rng(seed', pi_index) — not from the shared
  // structure RNG — so the loop parallelizes with results that depend only
  // on (seed, pi_index), never on iteration order or thread count.
  out.arrivals.assign(nl.num_nets(), sta::InputArrival{});
  const sta::DelayModel model(nl, out.parasitics);
  const double base_delay = sta::run_sta(nl, model).max_lat;
  const double spread = std::max(p.arrival_spread_frac * base_delay, 1e-3);
  const double width = std::max(p.window_width_frac * base_delay, 1e-4);
  const std::vector<net::NetId>& pis = nl.primary_inputs();
  const std::uint64_t arrival_seed = p.seed ^ 0xA5A5A5A55A5A5A5AULL;
  runtime::parallel_for(p.threads, 0, pis.size(), [&](std::size_t pi) {
    Rng stream(arrival_seed, pi);
    sta::InputArrival a;
    a.eat = stream.next_double(0.0, spread);
    a.lat = a.eat + stream.next_double(0.0, width);
    out.arrivals[pis[pi]] = a;
  });
  return out;
}

}  // namespace tka::gen
