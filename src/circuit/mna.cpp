#include "circuit/mna.hpp"

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace tka::circuit {

NodeId LinearCircuit::add_node(std::string name) {
  names_.push_back(name.empty() ? str::format("n%zu", names_.size() + 1)
                                : std::move(name));
  return static_cast<NodeId>(names_.size());
}

void LinearCircuit::add_resistor(NodeId a, NodeId b, double kohm) {
  TKA_ASSERT(kohm > 0.0);
  TKA_ASSERT(a >= 0 && static_cast<size_t>(a) <= node_count());
  TKA_ASSERT(b >= 0 && static_cast<size_t>(b) <= node_count());
  TKA_ASSERT(a != b);
  resistors_.push_back({a, b, kohm});
}

void LinearCircuit::add_capacitor(NodeId a, NodeId b, double pf) {
  TKA_ASSERT(pf > 0.0);
  TKA_ASSERT(a >= 0 && static_cast<size_t>(a) <= node_count());
  TKA_ASSERT(b >= 0 && static_cast<size_t>(b) <= node_count());
  TKA_ASSERT(a != b);
  capacitors_.push_back({a, b, pf});
}

void LinearCircuit::add_vsource(NodeId node, wave::Pwl waveform) {
  TKA_ASSERT(node >= 1 && static_cast<size_t>(node) <= node_count());
  sources_.push_back({node, std::move(waveform)});
}

Matrix LinearCircuit::build_g() const {
  const size_t n = unknown_count();
  Matrix g(n, n);
  for (const TwoTerminal& r : resistors_) {
    const double cond = 1.0 / r.value;  // 1/kOhm = mS; consistent units
    const int ra = row_of(r.a);
    const int rb = row_of(r.b);
    if (ra >= 0) g.at(ra, ra) += cond;
    if (rb >= 0) g.at(rb, rb) += cond;
    if (ra >= 0 && rb >= 0) {
      g.at(ra, rb) -= cond;
      g.at(rb, ra) -= cond;
    }
  }
  // Voltage-source incidence rows/columns.
  for (size_t s = 0; s < sources_.size(); ++s) {
    const int node_row = row_of(sources_[s].node);
    const size_t src_row = node_count() + s;
    TKA_ASSERT(node_row >= 0);
    g.at(static_cast<size_t>(node_row), src_row) += 1.0;  // current into node
    g.at(src_row, static_cast<size_t>(node_row)) += 1.0;  // v_node = b
  }
  return g;
}

Matrix LinearCircuit::build_c() const {
  const size_t n = unknown_count();
  Matrix c(n, n);
  for (const TwoTerminal& cap : capacitors_) {
    const int ra = row_of(cap.a);
    const int rb = row_of(cap.b);
    const double v = cap.value;  // pF; with kOhm and ns, tau = R*C in ns
    if (ra >= 0) c.at(ra, ra) += v;
    if (rb >= 0) c.at(rb, rb) += v;
    if (ra >= 0 && rb >= 0) {
      c.at(ra, rb) -= v;
      c.at(rb, ra) -= v;
    }
  }
  return c;
}

std::vector<double> LinearCircuit::build_rhs(double t) const {
  std::vector<double> b(unknown_count(), 0.0);
  for (size_t s = 0; s < sources_.size(); ++s) {
    b[node_count() + s] = sources_[s].waveform.value(t);
  }
  return b;
}

}  // namespace tka::circuit
