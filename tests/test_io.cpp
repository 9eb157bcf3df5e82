// Tests for the .bench reader, SPEF-lite round-trip, DOT export and the
// shared design loader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/bench_reader.hpp"
#include "io/design_loader.hpp"
#include "io/dot_writer.hpp"
#include "io/spef_lite.hpp"
#include "io/verilog_lite.hpp"
#include "layout/extractor.hpp"
#include "layout/placer.hpp"
#include "layout/router.hpp"
#include "net/builder.hpp"
#include "net/topo.hpp"
#include "util/error.hpp"

namespace tka::io {
namespace {

const char* kC17Bench = R"(
# c17 (ISCAS-85)
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
)";

TEST(BenchReader, ParsesC17) {
  auto nl = read_bench_string(kC17Bench, "c17");
  nl->validate();
  EXPECT_EQ(nl->num_gates(), 6u);
  EXPECT_EQ(nl->primary_inputs().size(), 5u);
  EXPECT_EQ(nl->primary_outputs().size(), 2u);
  // Same structure as the hand-built version.
  auto ref = net::make_c17();
  EXPECT_EQ(nl->num_nets(), ref->num_nets());
}

TEST(BenchReader, OutOfOrderDefinitions) {
  auto nl = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = AND(a, a2)
INPUT(a2)
)");
  nl->validate();
  EXPECT_EQ(nl->num_gates(), 2u);
}

TEST(BenchReader, DecomposesWideGates) {
  auto nl = read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = NAND(a, b, c, d, e)
)");
  nl->validate();
  // 5-input NAND -> AND2 tree (4 gates) + final stage; must be > 1 gate and
  // functionally a 5-in NAND structure with one output.
  EXPECT_GT(nl->num_gates(), 1u);
  EXPECT_EQ(nl->primary_outputs().size(), 1u);
  EXPECT_TRUE(nl->has_net("y"));
}

TEST(BenchReader, XorChainDecomposition) {
  auto nl = read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = XNOR(a, b, c)
)");
  nl->validate();
  EXPECT_TRUE(nl->has_net("y"));
}

TEST(BenchReader, DffBecomesTimingBoundary) {
  auto nl = read_bench_string(R"(
INPUT(clkin)
OUTPUT(q2)
q1 = DFF(d1)
d1 = NOT(clkin)
q2 = NOT(q1)
)");
  nl->validate();
  // q1 is a pseudo-PI; d1 is a timing endpoint (pseudo-PO).
  EXPECT_EQ(nl->primary_inputs().size(), 2u);
  const net::NetId d1 = nl->net_by_name("d1");
  EXPECT_TRUE(nl->net(d1).is_primary_output);
}

TEST(BenchReader, ErrorsCarryLineNumbers) {
  try {
    read_bench_string("INPUT(a)\nzzz = FROB(a)\n");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bench:2"), std::string::npos);
  }
}

TEST(BenchReader, UndefinedNetIsError) {
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n"), Error);
}

TEST(BenchReader, DuplicateNetIsError) {
  EXPECT_THROW(read_bench_string("INPUT(a)\na = NOT(a)\n"), Error);
}

TEST(BenchReader, CombinationalCycleIsError) {
  EXPECT_THROW(read_bench_string(R"(
INPUT(a)
x = AND(a, y)
y = NOT(x)
)"),
               Error);
}

TEST(SpefLite, RoundTripsParasitics) {
  auto nl = net::make_c17();
  layout::Parasitics par(nl->num_nets());
  par.add_ground_cap(0, 0.0123);
  par.add_wire_res(0, 0.456);
  par.add_ground_cap(3, 0.002);
  par.add_coupling(0, 3, 0.0077);
  par.add_coupling(2, 5, 0.0011);

  std::ostringstream os;
  write_spef_lite(os, *nl, par);
  std::istringstream is(os.str());
  const layout::Parasitics back = read_spef_lite(is, *nl);

  EXPECT_NEAR(back.ground_cap(0), 0.0123, 1e-12);
  EXPECT_NEAR(back.wire_res(0), 0.456, 1e-12);
  EXPECT_EQ(back.num_couplings(), 2u);
  EXPECT_NEAR(back.coupling(0).cap_pf, 0.0077, 1e-12);
  EXPECT_EQ(back.coupling(1).net_a, 2u);
}

TEST(SpefLite, ZeroedCouplingsOmitted) {
  auto nl = net::make_c17();
  layout::Parasitics par(nl->num_nets());
  const layout::CapId id = par.add_coupling(0, 1, 0.004);
  par.zero_coupling(id);
  std::ostringstream os;
  write_spef_lite(os, *nl, par);
  EXPECT_EQ(os.str().find("*CCAP"), std::string::npos);
}

TEST(SpefLite, RejectsUnknownNet) {
  auto nl = net::make_c17();
  std::istringstream is("*NET bogus 0.1 0.2\n");
  EXPECT_THROW(read_spef_lite(is, *nl), Error);
}

TEST(SpefLite, RejectsMalformedLine) {
  auto nl = net::make_c17();
  std::istringstream is("*NET N1 0.1\n");
  EXPECT_THROW(read_spef_lite(is, *nl), Error);
  std::istringstream is2("*WHAT x y z\n");
  EXPECT_THROW(read_spef_lite(is2, *nl), Error);
}

TEST(DotWriter, EmitsGatesNetsAndCouplings) {
  auto nl = net::make_c17();
  layout::Parasitics par(nl->num_nets());
  const layout::CapId hot = par.add_coupling(5, 7, 0.003);
  par.add_coupling(6, 8, 0.001);
  std::ostringstream os;
  const layout::CapId hl[] = {hot};
  write_dot(os, *nl, &par, hl);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("NAND2X1"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_EQ(dot.find("color=red", dot.find("color=red") + 1), std::string::npos);
}

TEST(DesignLoader, PicksReaderBySuffixAndParasiticsBySpef) {
  const std::string bench = "test_io_loader.bench";
  const std::string verilog = "test_io_loader.v";
  const std::string spef = "test_io_loader.spef";
  std::ofstream(bench) << kC17Bench;
  const std::unique_ptr<net::Netlist> c17 = read_bench_string(kC17Bench);
  write_verilog_file(verilog, *c17);

  // No SPEF: the default placement, routing and extraction.
  const LoadedDesign from_bench = load_design(bench, "");
  EXPECT_EQ(from_bench.netlist->num_gates(), c17->num_gates());
  const std::vector<layout::Route> routes =
      layout::route_all(*c17, layout::grid_place(*c17, {}));
  const layout::Parasitics extracted = layout::extract(*c17, routes, {});
  ASSERT_GT(extracted.num_couplings(), 0u);
  ASSERT_EQ(from_bench.parasitics.num_couplings(), extracted.num_couplings());
  for (layout::CapId c = 0; c < extracted.num_couplings(); ++c) {
    EXPECT_EQ(from_bench.parasitics.coupling(c).cap_pf,
              extracted.coupling(c).cap_pf);
  }

  // A `.v` path reads Verilog; a SPEF path replaces the extraction.
  layout::Parasitics par(c17->num_nets());
  par.add_coupling(0, 3, 0.0077);
  write_spef_lite_file(spef, *c17, par);
  const LoadedDesign from_verilog = load_design(verilog, spef);
  EXPECT_EQ(from_verilog.netlist->num_gates(), c17->num_gates());
  ASSERT_EQ(from_verilog.parasitics.num_couplings(), 1u);
  EXPECT_NEAR(from_verilog.parasitics.coupling(0).cap_pf, 0.0077, 1e-12);

  std::remove(bench.c_str());
  std::remove(verilog.c_str());
  std::remove(spef.c_str());
}

}  // namespace
}  // namespace tka::io
