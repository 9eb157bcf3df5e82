#include "io/dot_writer.hpp"

#include <algorithm>
#include <ostream>

#include "util/string_util.hpp"

namespace tka::io {

void write_dot(std::ostream& out, const net::Netlist& nl,
               const layout::Parasitics* par,
               std::span<const layout::CapId> highlight) {
  out << "digraph \"" << nl.name() << "\" {\n";
  out << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";

  for (net::NetId n = 0; n < nl.num_nets(); ++n) {
    const net::Net& net = nl.net(n);
    if (net.is_primary_input) {
      out << "  n" << n << " [label=\"" << net.name << "\", shape=triangle];\n";
    } else if (net.is_primary_output && net.fanouts.empty()) {
      out << "  n" << n << " [label=\"" << net.name << "\", shape=invtriangle];\n";
    }
  }
  for (net::GateId g = 0; g < nl.num_gates(); ++g) {
    const net::Gate& gate = nl.gate(g);
    out << "  g" << g << " [label=\"" << gate.name << "\\n"
        << nl.cell_of(g).name << "\"];\n";
    for (net::NetId in : gate.inputs) {
      if (nl.net(in).is_primary_input || nl.net(in).driver == net::kInvalidGate) {
        out << "  n" << in << " -> g" << g << ";\n";
      } else {
        out << "  g" << nl.net(in).driver << " -> g" << g << " [label=\""
            << nl.net(in).name << "\", fontsize=8];\n";
      }
    }
    if (nl.net(gate.output).is_primary_output) {
      out << "  n" << gate.output << " [label=\"" << nl.net(gate.output).name
          << "\", shape=invtriangle];\n";
      out << "  g" << g << " -> n" << gate.output << ";\n";
    }
  }

  if (par != nullptr) {
    auto node_of = [&nl](net::NetId n) {
      const net::Net& net = nl.net(n);
      std::string id;
      if (net.driver != net::kInvalidGate) {
        id = str::format("g%u", net.driver);
      } else {
        id = str::format("n%u", n);
      }
      return id;
    };
    for (layout::CapId id = 0; id < par->num_couplings(); ++id) {
      const layout::CouplingCap& cc = par->coupling(id);
      if (cc.cap_pf <= 0.0) continue;
      const bool hot =
          std::find(highlight.begin(), highlight.end(), id) != highlight.end();
      out << "  " << node_of(cc.net_a) << " -> " << node_of(cc.net_b)
          << " [dir=none, style=dashed"
          << (hot ? ", color=red, penwidth=2.0" : ", color=gray") << "];\n";
    }
  }
  out << "}\n";
}

}  // namespace tka::io
