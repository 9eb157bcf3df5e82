// Tests for the JSON/CSV result exporters.
#include <gtest/gtest.h>

#include <sstream>

#include "fixtures.hpp"
#include "io/report_writer.hpp"
#include "noise/coupling_calc.hpp"
#include "session/analysis_session.hpp"
#include "util/json.hpp"

namespace tka::io {
namespace {

using test::Fixture;

struct ReportHarness {
  Fixture fx;
  sta::DelayModel model;
  noise::AnalyticCouplingCalculator calc;
  noise::NoiseReport report;

  ReportHarness()
      : fx([] {
          Fixture f = test::make_parallel_chains(2, 2);
          test::couple(f, "c0_n1", "c1_n1", 0.008);
          return f;
        }()),
        model(*fx.netlist, fx.parasitics),
        calc(fx.parasitics, model),
        report(noise::analyze_iterative(
            *fx.netlist, fx.parasitics, model, calc,
            noise::CouplingMask::all(fx.parasitics.num_couplings()),
            [this] {
              noise::IterativeOptions it;
              it.sta = fx.sta_options();
              return it;
            }())) {}

  topk::TopkResult run(const topk::TopkOptions& opt) const {
    session::AnalysisSession s(*fx.netlist, fx.parasitics, model.options());
    return s.run(opt);
  }
};

TEST(JsonEscape, HandlesSpecials) {
  using util::json::escape;
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(NoiseReportJson, ContainsDelaysAndNoisyNets) {
  ReportHarness h;
  std::ostringstream os;
  write_noise_report_json(os, *h.fx.netlist, h.report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"design\": \"chains\""), std::string::npos);
  EXPECT_NE(json.find("\"noiseless_delay_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"converged\": true"), std::string::npos);
  // The coupled net shows up with its delay noise.
  EXPECT_NE(json.find("\"name\": \"c0_n1\""), std::string::npos);
  // Quiet nets are omitted by default...
  EXPECT_EQ(json.find("\"name\": \"c0_in\""), std::string::npos);
  // ...and included when asked.
  std::ostringstream os2;
  write_noise_report_json(os2, *h.fx.netlist, h.report, true);
  EXPECT_NE(os2.str().find("\"name\": \"c0_in\""), std::string::npos);
}

TEST(TopkJson, RoundTripsSetMembers) {
  ReportHarness h;
  topk::TopkOptions opt;
  opt.k = 1;
  opt.iterative.sta = h.fx.sta_options();
  const topk::TopkResult res = h.run(opt);

  std::ostringstream os;
  write_topk_result_json(os, *h.fx.netlist, h.fx.parasitics, res, 1);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"mode\": \"addition\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"net_a\": \"c0_n1\""), std::string::npos);
  EXPECT_NE(json.find("\"delay_by_k\": ["), std::string::npos);
}

TEST(TopkJson, StatsSectionPresent) {
  ReportHarness h;
  topk::TopkOptions opt;
  opt.k = 2;
  opt.iterative.sta = h.fx.sta_options();
  const topk::TopkResult res = h.run(opt);

  std::ostringstream os;
  write_topk_result_json(os, *h.fx.netlist, h.fx.parasitics, res, 2);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(json.find("\"sets_generated\": "), std::string::npos);
  EXPECT_NE(json.find("\"dominance_pruned\": "), std::string::npos);
  EXPECT_NE(json.find("\"beam_capped\": "), std::string::npos);
  EXPECT_NE(json.find("\"max_list_size\": "), std::string::npos);
  // One runtime sample per cardinality, comma-separated inside the array.
  const size_t arr = json.find("\"runtime_by_k_s\": [");
  ASSERT_NE(arr, std::string::npos);
  const size_t end = json.find(']', arr);
  ASSERT_NE(end, std::string::npos);
  const std::string values = json.substr(arr, end - arr);
  EXPECT_NE(values.find(", "), std::string::npos);  // two entries for k=2
}

TEST(TopkCsv, OneRowPerCardinality) {
  ReportHarness h;
  topk::TopkOptions opt;
  opt.k = 3;
  opt.iterative.sta = h.fx.sta_options();
  const topk::TopkResult res = h.run(opt);

  std::ostringstream os;
  write_topk_trail_csv(os, res);
  const std::string csv = os.str();
  // Header + 3 rows.
  size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(csv.rfind("k,estimated_delay_ns,runtime_s", 0), 0u);
  EXPECT_NE(csv.find("\n1,"), std::string::npos);
  EXPECT_NE(csv.find("\n3,"), std::string::npos);
}

}  // namespace
}  // namespace tka::io
