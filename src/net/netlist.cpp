#include "net/netlist.hpp"

#include <unordered_map>

#include "net/topo.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tka::net {

NetId Netlist::add_primary_input(const std::string& name) {
  Net n;
  n.name = name;
  n.is_primary_input = true;
  nets_.push_back(std::move(n));
  return static_cast<NetId>(nets_.size() - 1);
}

NetId Netlist::add_gate(size_t cell_index, const std::vector<NetId>& inputs,
                        const std::string& gate_name, const std::string& out_name) {
  const CellType& cell = library_->cell(cell_index);
  TKA_CHECK(static_cast<int>(inputs.size()) == cell.num_inputs,
            "add_gate: fanin count does not match cell " + cell.name);
  for (NetId in : inputs) {
    TKA_CHECK(in < nets_.size(), "add_gate: unknown input net");
  }

  const GateId gid = static_cast<GateId>(gates_.size());
  Gate g;
  g.name = gate_name.empty() ? str::format("g%u", gid) : gate_name;
  g.cell_index = cell_index;
  g.inputs = inputs;

  Net out;
  out.name = out_name.empty() ? g.name + "_out" : out_name;
  out.driver = gid;
  const NetId out_id = static_cast<NetId>(nets_.size());
  g.output = out_id;

  for (size_t pin = 0; pin < inputs.size(); ++pin) {
    nets_.mut(inputs[pin]).fanouts.push_back({gid, static_cast<int>(pin)});
  }
  gates_.push_back(std::move(g));
  nets_.push_back(std::move(out));
  return out_id;
}

void Netlist::mark_primary_output(NetId net) {
  TKA_CHECK(net < nets_.size(), "mark_primary_output: unknown net");
  nets_.mut(net).is_primary_output = true;
}

void Netlist::resize_gate(GateId gate, size_t cell_index) {
  TKA_CHECK(gate < gates_.size(), "resize_gate: unknown gate");
  const CellType& from = library_->cell(gates_[gate].cell_index);
  const CellType& to = library_->cell(cell_index);
  TKA_CHECK(is_drive_variant(from, to),
            "resize_gate: cell " + to.name + " is not a drive variant of " +
                from.name);
  gates_.mut(gate).cell_index = cell_index;
}

std::vector<NetId> Netlist::primary_inputs() const {
  std::vector<NetId> out;
  for (NetId i = 0; i < nets_.size(); ++i) {
    if (nets_[i].is_primary_input) out.push_back(i);
  }
  return out;
}

std::vector<NetId> Netlist::primary_outputs() const {
  std::vector<NetId> out;
  for (NetId i = 0; i < nets_.size(); ++i) {
    if (nets_[i].is_primary_output) out.push_back(i);
  }
  return out;
}

NetId Netlist::net_by_name(const std::string& name) const {
  for (NetId i = 0; i < nets_.size(); ++i) {
    if (nets_[i].name == name) return i;
  }
  throw Error("Netlist: unknown net '" + name + "'");
}

bool Netlist::has_net(const std::string& name) const {
  for (const Net& n : nets_) {
    if (n.name == name) return true;
  }
  return false;
}

void Netlist::validate() const {
  for (NetId i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    if (!n.is_primary_input && n.driver == kInvalidGate) {
      throw Error("Netlist: net '" + n.name + "' is undriven");
    }
    if (n.is_primary_input && n.driver != kInvalidGate) {
      throw Error("Netlist: primary input '" + n.name + "' has a driver");
    }
    for (const PinRef& p : n.fanouts) {
      if (p.gate >= gates_.size()) throw Error("Netlist: dangling fanout on '" + n.name + "'");
      const Gate& g = gates_[p.gate];
      if (p.pin < 0 || static_cast<size_t>(p.pin) >= g.inputs.size() ||
          g.inputs[static_cast<size_t>(p.pin)] != i) {
        throw Error("Netlist: inconsistent fanout pin on '" + n.name + "'");
      }
    }
  }
  for (GateId gi = 0; gi < gates_.size(); ++gi) {
    const Gate& g = gates_[gi];
    const CellType& cell = library_->cell(g.cell_index);
    if (static_cast<int>(g.inputs.size()) != cell.num_inputs) {
      throw Error("Netlist: gate '" + g.name + "' pin count mismatch");
    }
    if (g.output >= nets_.size() || nets_[g.output].driver != gi) {
      throw Error("Netlist: gate '" + g.name + "' output inconsistent");
    }
  }
  // Acyclicity: topological_nets throws on a cycle.
  (void)topological_nets(*this);
}

}  // namespace tka::net
