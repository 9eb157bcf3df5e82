#include "net/builder.hpp"

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace tka::net {

std::unique_ptr<Netlist> make_chain(int length, const std::string& name) {
  TKA_ASSERT(length >= 1);
  const CellLibrary& lib = CellLibrary::default_library();
  auto nl = std::make_unique<Netlist>(lib, name);
  const size_t inv = lib.index_of("INVX1");
  const size_t buf = lib.index_of("BUFX1");
  NetId cur = nl->add_primary_input("in");
  for (int i = 0; i < length; ++i) {
    const size_t cell = (i % 2 == 0) ? inv : buf;
    cur = nl->add_gate(cell, {cur}, str::format("u%d", i),
                       str::format("n%d", i));
  }
  nl->mark_primary_output(cur);
  return nl;
}

std::unique_ptr<Netlist> make_nand_tree(int depth, const std::string& name) {
  TKA_ASSERT(depth >= 1);
  const CellLibrary& lib = CellLibrary::default_library();
  auto nl = std::make_unique<Netlist>(lib, name);
  const size_t nand2 = lib.index_of("NAND2X1");
  std::vector<NetId> level;
  const int leaves = 1 << depth;
  for (int i = 0; i < leaves; ++i) {
    level.push_back(nl->add_primary_input("in" + std::to_string(i)));
  }
  int gate_counter = 0;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(nl->add_gate(nand2, {level[i], level[i + 1]},
                                  str::format("t%d", gate_counter++)));
    }
    level = std::move(next);
  }
  nl->mark_primary_output(level.front());
  return nl;
}

std::unique_ptr<Netlist> make_c17() {
  const CellLibrary& lib = CellLibrary::default_library();
  auto nl = std::make_unique<Netlist>(lib, "c17");
  const size_t nand2 = lib.index_of("NAND2X1");
  const NetId n1 = nl->add_primary_input("N1");
  const NetId n2 = nl->add_primary_input("N2");
  const NetId n3 = nl->add_primary_input("N3");
  const NetId n6 = nl->add_primary_input("N6");
  const NetId n7 = nl->add_primary_input("N7");
  const NetId n10 = nl->add_gate(nand2, {n1, n3}, "G10", "N10");
  const NetId n11 = nl->add_gate(nand2, {n3, n6}, "G11", "N11");
  const NetId n16 = nl->add_gate(nand2, {n2, n11}, "G16", "N16");
  const NetId n19 = nl->add_gate(nand2, {n11, n7}, "G19", "N19");
  const NetId n22 = nl->add_gate(nand2, {n10, n16}, "G22", "N22");
  const NetId n23 = nl->add_gate(nand2, {n16, n19}, "G23", "N23");
  nl->mark_primary_output(n22);
  nl->mark_primary_output(n23);
  return nl;
}

}  // namespace tka::net
