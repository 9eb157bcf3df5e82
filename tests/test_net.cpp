// Tests for the netlist substrate: cell library, construction invariants,
// validation, topological utilities and canonical builders.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/builder.hpp"
#include "net/cell_library.hpp"
#include "net/netlist.hpp"
#include "net/topo.hpp"
#include "util/error.hpp"

namespace tka::net {
namespace {

TEST(CellLibrary, DefaultLibraryHasCoreCells) {
  const CellLibrary& lib = CellLibrary::default_library();
  for (const char* name : {"INVX1", "BUFX1", "NAND2X1", "NOR2X1", "AND2X1",
                           "OR2X1", "XOR2X1", "NAND3X1", "NAND4X1"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
  }
  EXPECT_THROW(lib.index_of("FANCY42"), Error);
}

TEST(CellLibrary, StrongerDriveHasLowerResistance) {
  const CellLibrary& lib = CellLibrary::default_library();
  EXPECT_LT(lib.cell(lib.index_of("INVX2")).drive_res_kohm,
            lib.cell(lib.index_of("INVX1")).drive_res_kohm);
  EXPECT_LT(lib.cell(lib.index_of("NAND2X2")).drive_res_kohm,
            lib.cell(lib.index_of("NAND2X1")).drive_res_kohm);
}

TEST(CellLibrary, CellsWithInputs) {
  const CellLibrary& lib = CellLibrary::default_library();
  for (size_t idx : lib.cells_with_inputs(2)) {
    EXPECT_EQ(lib.cell(idx).num_inputs, 2);
  }
  EXPECT_FALSE(lib.cells_with_inputs(1).empty());
  EXPECT_TRUE(lib.cells_with_inputs(7).empty());
}

TEST(Netlist, BuildSmallCircuit) {
  const CellLibrary& lib = CellLibrary::default_library();
  Netlist nl(lib, "t");
  const NetId a = nl.add_primary_input("a");
  const NetId b = nl.add_primary_input("b");
  const NetId y = nl.add_gate(lib.index_of("NAND2X1"), {a, b}, "g0", "y");
  nl.mark_primary_output(y);
  nl.validate();

  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.net(y).driver, 0u);
  ASSERT_EQ(nl.net(a).fanouts.size(), 1u);
  EXPECT_EQ(nl.net(a).fanouts[0].gate, 0u);
  EXPECT_EQ(nl.net(a).fanouts[0].pin, 0);
  EXPECT_EQ(nl.net(b).fanouts[0].pin, 1);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.net_by_name("y"), y);
  EXPECT_TRUE(nl.has_net("a"));
  EXPECT_FALSE(nl.has_net("zz"));
  EXPECT_THROW(nl.net_by_name("zz"), Error);
}

TEST(Netlist, AddGateRejectsWrongFanin) {
  const CellLibrary& lib = CellLibrary::default_library();
  Netlist nl(lib);
  const NetId a = nl.add_primary_input("a");
  EXPECT_THROW(nl.add_gate(lib.index_of("NAND2X1"), {a}, "g"), Error);
}

TEST(Topo, TopologicalOrderRespectsEdges) {
  auto nl = make_c17();
  const std::vector<NetId> order = topological_nets(*nl);
  EXPECT_EQ(order.size(), nl->num_nets());
  std::vector<size_t> pos(nl->num_nets());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId g = 0; g < nl->num_gates(); ++g) {
    for (NetId in : nl->gate(g).inputs) {
      EXPECT_LT(pos[in], pos[nl->gate(g).output]);
    }
  }
}

TEST(Topo, LevelsMonotone) {
  auto nl = make_c17();
  const std::vector<int> lv = net_levels(*nl);
  for (NetId n : nl->primary_inputs()) EXPECT_EQ(lv[n], 0);
  for (GateId g = 0; g < nl->num_gates(); ++g) {
    int max_in = 0;
    for (NetId in : nl->gate(g).inputs) max_in = std::max(max_in, lv[in]);
    EXPECT_EQ(lv[nl->gate(g).output], max_in + 1);
  }
}

TEST(Builder, ChainStructure) {
  auto nl = make_chain(5);
  nl->validate();
  EXPECT_EQ(nl->num_gates(), 5u);
  EXPECT_EQ(nl->num_nets(), 6u);
  EXPECT_EQ(nl->primary_outputs().size(), 1u);
  const std::vector<int> lv = net_levels(*nl);
  EXPECT_EQ(*std::max_element(lv.begin(), lv.end()), 5);
}

TEST(Builder, NandTreeStructure) {
  auto nl = make_nand_tree(3);
  nl->validate();
  EXPECT_EQ(nl->primary_inputs().size(), 8u);
  EXPECT_EQ(nl->num_gates(), 7u);
  EXPECT_EQ(nl->primary_outputs().size(), 1u);
}

TEST(Builder, C17IsValid) {
  auto nl = make_c17();
  nl->validate();
  EXPECT_EQ(nl->num_gates(), 6u);
  EXPECT_EQ(nl->primary_inputs().size(), 5u);
  EXPECT_EQ(nl->primary_outputs().size(), 2u);
}

}  // namespace
}  // namespace tka::net
