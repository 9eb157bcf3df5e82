// Benchmark-harness substrate tests: repetition statistics, the BENCH
// JSON writer against the JSON reader (schema round-trip), the metric
// snapshot/delta API, and the bench_compare regression rules.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/bench_json.hpp"
#include "harness/compare.hpp"
#include "harness/harness.hpp"
#include "harness/stats.hpp"
#include "obs/obs.hpp"

namespace tka::bench {
namespace {

// ---------------------------------------------------------------- stats --

TEST(BenchStats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(summarize_samples({3.0, 1.0, 2.0}).median, 2.0);
  EXPECT_DOUBLE_EQ(summarize_samples({4.0, 1.0, 3.0, 2.0}).median, 2.5);
  EXPECT_DOUBLE_EQ(summarize_samples({7.0}).median, 7.0);
}

TEST(BenchStats, QuantilesInterpolateBetweenRanks) {
  // Sorted: 10, 20, 30, 40, 50. rank(q) = q * 4.
  const std::vector<double> s{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(s, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(s, 0.5), 30.0);
  EXPECT_NEAR(quantile_sorted(s, 0.10), 14.0, 1e-12);  // rank 0.4
  EXPECT_NEAR(quantile_sorted(s, 0.90), 46.0, 1e-12);  // rank 3.6
  EXPECT_NEAR(quantile_sorted(s, 0.25), 20.0, 1e-12);  // rank 1.0
}

TEST(BenchStats, SummaryFields) {
  const TimeStats st = summarize_samples({2.0, 8.0, 4.0, 6.0});
  EXPECT_EQ(st.reps, 4u);
  EXPECT_DOUBLE_EQ(st.min, 2.0);
  EXPECT_DOUBLE_EQ(st.max, 8.0);
  EXPECT_DOUBLE_EQ(st.mean, 5.0);
  EXPECT_DOUBLE_EQ(st.median, 5.0);
  EXPECT_EQ(summarize_samples({}).reps, 0u);
}

// ----------------------------------------------------------- JSON reader --

TEST(BenchJson, ParsesScalarsArraysObjects) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(parse(R"({"a": 1.5, "b": [true, null, "x\nA"], "c": {"d": -2e3}})",
                    &v, &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_or("a", 0.0), 1.5);
  const json::Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_TRUE(b->array[1].is_null());
  EXPECT_EQ(b->array[2].string, "x\nA");
  EXPECT_DOUBLE_EQ(v.find("c")->number_or("d", 0.0), -2000.0);
}

TEST(BenchJson, RejectsMalformedInput) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(parse("{", &v, &err));
  EXPECT_FALSE(parse("{\"a\": 01}", &v, &err));  // leading zero
  EXPECT_FALSE(parse("[1, 2,]", &v, &err));
  EXPECT_FALSE(parse("\"unterminated", &v, &err));
  EXPECT_FALSE(parse("{} trailing", &v, &err));
  EXPECT_FALSE(parse("{\"a\": nul}", &v, &err));
  EXPECT_FALSE(err.empty());
}

// --------------------------------------------------- writer/schema round --

HarnessConfig test_config() {
  HarnessConfig config;
  config.suite = "unit_suite";
  config.scale = 0;
  config.smoke = true;
  config.reps = 2;
  config.warmup = 0;
  config.threads = 1;
  return config;
}

std::vector<CaseResult> test_results() {
  CaseResult r;
  r.name = "case_a";
  r.time = summarize_samples({0.25, 0.75});
  r.values = {{"delay_k5", 2.25}, {"baseline_delay", 2.0}};
  r.counters = {{"topk.sets_generated", 123}, {"sta.runs", 4}};
  return {r};
}

TEST(BenchJsonSchema, WriterOutputParsesAndMatchesSchema) {
  const std::string text = render_bench_json(test_config(), test_results());
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;

  // Top-level schema: schema_version / suite / config / benchmarks.
  EXPECT_DOUBLE_EQ(doc.number_or("schema_version", -1.0), kBenchSchemaVersion);
  ASSERT_NE(doc.find("suite"), nullptr);
  EXPECT_EQ(doc.find("suite")->string, "unit_suite");
  const json::Value* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  for (const char* key : {"smoke", "scale", "reps", "warmup", "threads"}) {
    EXPECT_NE(config->find(key), nullptr) << "config missing " << key;
  }
  EXPECT_TRUE(config->find("smoke")->boolean);
  EXPECT_DOUBLE_EQ(config->number_or("threads", -1.0), 1.0);

  const json::Value* benchmarks = doc.find("benchmarks");
  ASSERT_NE(benchmarks, nullptr);
  ASSERT_TRUE(benchmarks->is_array());
  ASSERT_EQ(benchmarks->array.size(), 1u);
  const json::Value& b = benchmarks->array[0];
  EXPECT_EQ(b.find("name")->string, "case_a");
  const json::Value* time = b.find("time_s");
  ASSERT_NE(time, nullptr);
  for (const char* key : {"reps", "median", "p10", "p90", "min", "max",
                          "mean"}) {
    EXPECT_NE(time->find(key), nullptr) << "time_s missing " << key;
  }
  EXPECT_DOUBLE_EQ(time->number_or("median", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(b.find("values")->number_or("delay_k5", 0.0), 2.25);
  EXPECT_DOUBLE_EQ(b.find("counters")->number_or("topk.sets_generated", 0.0),
                   123.0);
}

TEST(BenchJsonSchema, EmptySuiteRendersValidDocument) {
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(render_bench_json(test_config(), {}), &doc, &err))
      << err;
  ASSERT_TRUE(doc.find("benchmarks")->is_array());
  EXPECT_TRUE(doc.find("benchmarks")->array.empty());
}

// ------------------------------------------------------ metric snapshots --

TEST(MetricsSnapshot, CapturesCounterDeltas) {
  obs::Counter& c = obs::registry().counter("test.bench_harness.counter");
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  c.add(7);
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const obs::MetricsSnapshot delta = obs::counters_delta(before, after);
  ASSERT_TRUE(delta.counters.count("test.bench_harness.counter"));
  EXPECT_EQ(delta.counters.at("test.bench_harness.counter"), 7u);
}

// -------------------------------------------------------- bench_compare --

json::Value parse_doc(const std::string& text) {
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(text, &doc, &err)) << err;
  return doc;
}

json::Value make_doc(double median, double delay, double sets) {
  CaseResult r;
  r.name = "i1";
  r.time = summarize_samples({median});
  r.values = {{"delay_k5", delay}};
  r.counters = {{"topk.sets_generated", static_cast<std::uint64_t>(sets)}};
  return parse_doc(render_bench_json(test_config(), {r}));
}

TEST(BenchCompare, IdenticalPairPasses) {
  const json::Value doc = make_doc(1.0, 2.25, 1000);
  const CompareResult res = compare_bench_documents(doc, doc, CompareOptions{});
  ASSERT_TRUE(res.usable()) << res.error;
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.benchmarks_compared, 1);
  EXPECT_GE(res.metrics_compared, 3);
}

TEST(BenchCompare, FlagsTwentyPercentSlowdown) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  const json::Value slow = make_doc(1.20, 2.25, 1000);
  const CompareResult res = compare_bench_documents(base, slow, CompareOptions{});
  ASSERT_TRUE(res.usable());
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("time_s.median"), std::string::npos);
  // Speedups never regress.
  EXPECT_TRUE(compare_bench_documents(slow, base, CompareOptions{}).ok());
}

TEST(BenchCompare, FlagsValueDriftBothDirections) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  EXPECT_FALSE(compare_bench_documents(base, make_doc(1.0, 2.26, 1000),
                                       CompareOptions{})
                   .ok());
  EXPECT_FALSE(compare_bench_documents(base, make_doc(1.0, 2.24, 1000),
                                       CompareOptions{})
                   .ok());
}

TEST(BenchCompare, FlagsCounterGrowthButNotShrink) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  EXPECT_FALSE(compare_bench_documents(base, make_doc(1.0, 2.25, 1200),
                                       CompareOptions{})
                   .ok());
  EXPECT_TRUE(compare_bench_documents(base, make_doc(1.0, 2.25, 800),
                                      CompareOptions{})
                  .ok());
}

TEST(BenchCompare, MissingBenchmarkIsCoverageLoss) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  const json::Value empty = parse_doc(render_bench_json(test_config(), {}));
  const CompareResult res =
      compare_bench_documents(base, empty, CompareOptions{});
  ASSERT_TRUE(res.usable());
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("coverage loss"), std::string::npos);
  // The reverse direction (new benchmark, no baseline) is only a note.
  EXPECT_TRUE(compare_bench_documents(empty, base, CompareOptions{}).ok());
}

TEST(BenchCompare, ThresholdsConfigurableAndDisablable) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  const json::Value slow = make_doc(3.0, 2.2, 9000);
  CompareOptions skip_all;
  skip_all.time_threshold = -1.0;
  skip_all.value_threshold = -1.0;
  skip_all.counter_threshold = -1.0;
  EXPECT_TRUE(compare_bench_documents(base, slow, skip_all).ok());

  CompareOptions loose;
  loose.time_threshold = 5.0;    // 500% allowed
  loose.value_threshold = 0.10;  // 10% drift allowed
  loose.counter_threshold = 10.0;
  EXPECT_TRUE(compare_bench_documents(base, slow, loose).ok());
}

TEST(BenchCompare, SchemaAndSuiteMismatchAreErrors) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  json::Value wrong_schema = parse_doc(
      R"({"schema_version": 999, "suite": "unit_suite", "benchmarks": []})");
  EXPECT_FALSE(compare_bench_documents(base, wrong_schema, CompareOptions{})
                   .usable());

  HarnessConfig other = test_config();
  other.suite = "another_suite";
  const json::Value other_doc = parse_doc(render_bench_json(other, {}));
  EXPECT_FALSE(
      compare_bench_documents(base, other_doc, CompareOptions{}).usable());

  HarnessConfig full = test_config();
  full.scale = 1;
  full.smoke = false;
  const json::Value full_doc = parse_doc(render_bench_json(full, {}));
  EXPECT_FALSE(
      compare_bench_documents(base, full_doc, CompareOptions{}).usable());
}

TEST(BenchCompare, CandidateWithoutCountersIsCounterRegression) {
  const json::Value base = make_doc(1.0, 2.25, 1000);
  CaseResult r;
  r.name = "i1";
  r.time = summarize_samples({1.0});
  r.values = {{"delay_k5", 2.25}};
  const json::Value no_counters =
      parse_doc(render_bench_json(test_config(), {r}));
  const CompareResult res =
      compare_bench_documents(base, no_counters, CompareOptions{});
  ASSERT_TRUE(res.usable());
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("no counters"), std::string::npos);

  // The failure belongs to the counter class: skipping it passes.
  CompareOptions skip_counters;
  skip_counters.counter_threshold = -1.0;
  EXPECT_TRUE(compare_bench_documents(base, no_counters, skip_counters).ok());

  // A candidate that lacks only some counters did less work and passes.
  r.counters = {{"topk.sets_generated", 1000}, {"pwl.merge_points", 500}};
  const json::Value two_counters =
      parse_doc(render_bench_json(test_config(), {r}));
  r.counters.erase("pwl.merge_points");
  const json::Value one_counter =
      parse_doc(render_bench_json(test_config(), {r}));
  EXPECT_TRUE(
      compare_bench_documents(two_counters, one_counter, CompareOptions{}).ok());
}

}  // namespace
}  // namespace tka::bench
