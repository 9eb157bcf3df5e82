// Modified nodal analysis (MNA) formulation of a linear RC circuit with
// PWL-driven ideal voltage sources: C x' + G x = b(t).
//
// Unknowns are node voltages (ground is node 0 and is eliminated) followed
// by one branch current per ideal voltage source. Units: kOhm, pF, ns, V —
// chosen so that R*C lands directly in ns and conductances stay O(1).
#pragma once

#include <cstddef>

#include <string>
#include <vector>

#include "circuit/matrix.hpp"
#include "wave/pwl.hpp"

namespace tka::circuit {

/// Node handle; 0 is ground.
using NodeId = int;

/// Linear RC circuit under construction. Elements may be added in any
/// order; `build()`-style assembly happens lazily inside the simulator.
class LinearCircuit {
 public:
  /// Creates a fresh node and returns its id (>= 1).
  NodeId add_node(std::string name = {});

  /// Resistor of `kohm` kilo-ohms between a and b (either may be ground).
  void add_resistor(NodeId a, NodeId b, double kohm);

  /// Capacitor of `pf` picofarads between a and b (either may be ground).
  void add_capacitor(NodeId a, NodeId b, double pf);

  /// Ideal voltage source from ground to `node`, driven by PWL `wave` (V).
  void add_vsource(NodeId node, wave::Pwl waveform);

  size_t node_count() const { return names_.size(); }
  size_t source_count() const { return sources_.size(); }
  const std::string& node_name(NodeId n) const { return names_[static_cast<size_t>(n) - 1]; }

  // --- Assembly (used by the transient engine) ---

  /// Number of MNA unknowns: nodes + source branch currents.
  size_t unknown_count() const { return node_count() + source_count(); }

  /// Conductance/incidence matrix G (unknown_count square).
  Matrix build_g() const;

  /// Capacitance matrix C (unknown_count square).
  Matrix build_c() const;

  /// Right-hand side b(t) at time t.
  std::vector<double> build_rhs(double t) const;

 private:
  struct TwoTerminal {
    NodeId a = 0;
    NodeId b = 0;
    double value = 0.0;
  };
  struct Source {
    NodeId node = 0;
    wave::Pwl waveform;
  };

  // Maps node id to MNA row (ground eliminated): node n -> n-1.
  static int row_of(NodeId n) { return n - 1; }

  std::vector<std::string> names_;
  std::vector<TwoTerminal> resistors_;
  std::vector<TwoTerminal> capacitors_;
  std::vector<Source> sources_;
};

}  // namespace tka::circuit
