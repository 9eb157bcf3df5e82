// Tests for the observability layer: metric semantics, span nesting, trace
// JSON well-formedness (validated with a real round-trip parse) and the
// engine's metric population.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "obs/obs.hpp"
#include "session/analysis_session.hpp"
#include "topk/topk_engine.hpp"
#include "util/json.hpp"

namespace tka::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — enough to round-trip-validate the
// trace and metrics emitters (objects, arrays, strings with escapes,
// numbers, booleans, null). Parse failures surface as test failures.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.count(key) != 0; }
  const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(Json* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool parse_value(Json* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out->kind = Json::Kind::kString; return parse_string(&out->string);
      case 't': out->kind = Json::Kind::kBool; out->boolean = true;
                return literal("true");
      case 'f': out->kind = Json::Kind::kBool; out->boolean = false;
                return literal("false");
      case 'n': out->kind = Json::Kind::kNull; return literal("null");
      default:  return parse_number(out);
    }
  }
  bool parse_string(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
                return false;
              }
            }
            pos_ += 4;
            out->push_back('?');  // codepoint value irrelevant for these tests
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool parse_number(Json* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      return false;
    }
    out->kind = Json::Kind::kNumber;
    return true;
  }
  bool parse_array(Json* out) {
    out->kind = Json::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      Json elem;
      skip_ws();
      if (!parse_value(&elem)) return false;
      out->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool parse_object(Json* out) {
    out->kind = Json::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Json parse_or_fail(const std::string& text) {
  Json value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.parse(&value)) << "invalid JSON:\n" << text;
  return value;
}

// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().enable(false);
    tracer().clear();
    registry().reset();
  }
  void TearDown() override {
    tracer().enable(false);
    tracer().clear();
    registry().reset();
  }
};

TEST_F(ObsTest, CounterAddsAndResets) {
  Counter& c = registry().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same object.
  EXPECT_EQ(&registry().counter("test.counter"), &c);
  registry().reset();
  EXPECT_EQ(c.value(), 0u);  // reference survives reset
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge& g = registry().gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(ObsTest, HistogramCountsSumAndBuckets) {
  Histogram& h = registry().histogram("test.hist", 1.0, 1024.0);
  h.observe(0.5);     // below lo -> bucket 0
  h.observe(1.0);     // == lo -> bucket 0
  h.observe(100.0);
  h.observe(1e9);     // above hi -> overflow (+inf) bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 100.0 + 1e9);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets - 1), 1u);
  std::uint64_t total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    total += h.bucket_count(i);
    if (i + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(h.bucket_upper(i), h.bucket_upper(i + 1));  // monotone bounds
    }
  }
  EXPECT_EQ(total, h.count());
  EXPECT_TRUE(std::isinf(h.bucket_upper(Histogram::kNumBuckets - 1)));
}

TEST_F(ObsTest, SpanNestingAndSummary) {
  tracer().enable(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  EXPECT_EQ(tracer().num_events(), 3u);
  const std::vector<SpanSummary> rows = tracer().summarize();
  ASSERT_EQ(rows.size(), 2u);
  // std::map order: "outer" then "outer/inner".
  EXPECT_EQ(rows[0].path, "outer");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[0].depth, 0u);
  EXPECT_EQ(rows[1].path, "outer/inner");
  EXPECT_EQ(rows[1].count, 2u);
  EXPECT_EQ(rows[1].depth, 1u);
  // Self time excludes children; totals nest.
  EXPECT_GE(rows[0].total_s, rows[1].total_s);
  EXPECT_LE(rows[0].self_s, rows[0].total_s);
  EXPECT_GE(rows[1].self_s, 0.0);
}

TEST_F(ObsTest, SpansDisabledRecordNothing) {
  {
    ScopedSpan span("ignored");
    EXPECT_FALSE(span.recording());
  }
  EXPECT_EQ(tracer().num_events(), 0u);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTrips) {
  tracer().enable(true);
  {
    ScopedSpan outer("phase \"one\"");  // exercises escaping
    outer.arg("k", static_cast<std::int64_t>(3)).arg("mode", "addition");
    ScopedSpan inner("child");
  }
  std::ostringstream os;
  tracer().write_chrome_json(os);
  const Json doc = parse_or_fail(os.str());
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  ASSERT_TRUE(doc.has("traceEvents"));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::kArray);
  ASSERT_EQ(events.array.size(), 2u);
  bool saw_outer = false;
  for (const Json& ev : events.array) {
    ASSERT_EQ(ev.kind, Json::Kind::kObject);
    EXPECT_EQ(ev.at("ph").string, "X");
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    ASSERT_TRUE(ev.has("args"));
    if (ev.at("name").string == "phase \"one\"") {
      saw_outer = true;
      EXPECT_EQ(ev.at("args").at("k").number, 3.0);
      EXPECT_EQ(ev.at("args").at("mode").string, "addition");
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST_F(ObsTest, ClearInvalidatesOpenSpans) {
  tracer().enable(true);
  {
    ScopedSpan span("outlived");
    tracer().clear();
  }  // end_span with a stale generation must be dropped, not crash
  EXPECT_EQ(tracer().num_events(), 0u);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  registry().counter("test.counter").add(7);
  registry().gauge("test.gauge").set(2.5);
  registry().histogram("test.hist", 1.0, 10.0).observe(3.0);
  tracer().enable(true);
  { ScopedSpan span("solo"); }
  std::ostringstream os;
  write_metrics_json(os);
  const Json doc = parse_or_fail(os.str());
  EXPECT_EQ(doc.at("counters").at("test.counter").number, 7.0);
  EXPECT_EQ(doc.at("gauges").at("test.gauge").number, 2.5);
  const Json& hist = doc.at("histograms").at("test.hist");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_EQ(hist.at("sum").number, 3.0);
  ASSERT_EQ(hist.at("buckets").kind, Json::Kind::kArray);
  EXPECT_EQ(hist.at("buckets").array.size(), 1u);
  const Json& spans = doc.at("spans");
  ASSERT_EQ(spans.kind, Json::Kind::kArray);
  ASSERT_EQ(spans.array.size(), 1u);
  EXPECT_EQ(spans.array[0].at("path").string, "solo");
  EXPECT_EQ(spans.array[0].at("count").number, 1.0);
}

// Metric names can carry client text (the server's per-design queue
// gauges), so both JSON writers escape them: a name with a quote, a
// backslash and a newline round-trips through a real parse, and the
// snapshot record stays on one line.
TEST_F(ObsTest, MetricNamesAreEscapedInJson) {
  const std::string name = "test.a\"b\\c\nd";
  registry().counter(name).add(3);
  registry().gauge(name).set(1.5);
  registry().histogram(name, 1.0, 10.0).observe(2.0);
  std::ostringstream metrics;
  write_metrics_json(metrics);
  std::ostringstream line;
  write_snapshot_line(line);
  EXPECT_EQ(line.str().find('\n'), std::string::npos);
  for (const std::string& text : {metrics.str(), line.str()}) {
    util::json::Value doc;
    std::string error;
    ASSERT_TRUE(util::json::parse(text, &doc, &error)) << error << "\n" << text;
    const util::json::Value* counters = doc.find("counters");
    const util::json::Value* gauges = doc.find("gauges");
    const util::json::Value* hists = doc.find("histograms");
    ASSERT_TRUE(counters && gauges && hists);
    EXPECT_EQ(counters->number_or(name, 0.0), 3.0);
    EXPECT_EQ(gauges->number_or(name, 0.0), 1.5);
    const util::json::Value* hist = hists->find(name);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->number_or("count", 0.0), 1.0);
  }
}

TEST_F(ObsTest, EngineRunPopulatesExpectedMetrics) {
  tracer().enable(true);
  test::Fixture fx = test::make_parallel_chains(2, 2);
  test::couple(fx, "c0_n1", "c1_n1", 0.008);
  session::AnalysisSession session(*fx.netlist, fx.parasitics, {});
  topk::TopkOptions opt;
  opt.k = 2;
  opt.iterative.sta = fx.sta_options();
  const topk::TopkResult res = session.run(opt);

  // Registry counters the acceptance criteria name.
  EXPECT_GT(registry().counter("topk.sets_generated").value(), 0u);
  EXPECT_EQ(registry().counter("topk.sets_generated").value(),
            res.stats.sets_generated);
  EXPECT_EQ(registry().counter("topk.runs").value(), 1u);
  EXPECT_GT(registry().counter("noise.fixpoint_runs").value(), 0u);
  EXPECT_GT(registry().counter("noise.fixpoint_iterations").value(), 0u);
  EXPECT_GT(registry().counter("sta.runs").value(), 0u);
  EXPECT_GT(registry().histogram("topk.ilist_size", 1.0, 65536.0).count(), 0u);

  // Per-cardinality spans and gauges.
  const std::vector<SpanSummary> rows = tracer().summarize();
  auto has_path_suffix = [&](const std::string& suffix) {
    for (const SpanSummary& row : rows) {
      if (row.path.size() >= suffix.size() &&
          row.path.compare(row.path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_path_suffix("topk.run"));
  EXPECT_TRUE(has_path_suffix("topk.baseline"));
  EXPECT_TRUE(has_path_suffix("topk.cardinality.1"));
  EXPECT_TRUE(has_path_suffix("topk.cardinality.2"));
  EXPECT_TRUE(has_path_suffix("noise.fixpoint"));
  EXPECT_TRUE(has_path_suffix("sta.run"));
  EXPECT_GT(registry().gauge("topk.cardinality_runtime_s.k1").value(), 0.0);
  EXPECT_GT(registry().gauge("topk.runtime_s").value(), 0.0);

  // TopkStats mirrors the registry (single clock, single source).
  EXPECT_GT(res.stats.runtime_s, 0.0);
  ASSERT_EQ(res.stats.runtime_by_k.size(), 2u);
  EXPECT_LE(res.stats.runtime_by_k[0], res.stats.runtime_by_k[1]);
  EXPECT_LE(res.stats.runtime_by_k[1], res.stats.runtime_s);

  // The whole metrics document stays valid JSON with the engine data in it.
  std::ostringstream os;
  write_metrics_json(os);
  const Json doc = parse_or_fail(os.str());
  EXPECT_TRUE(doc.at("counters").has("topk.sets_generated"));
  EXPECT_TRUE(doc.at("counters").has("topk.dominance_pruned"));
  EXPECT_TRUE(doc.at("counters").has("noise.fixpoint_iterations"));
  EXPECT_TRUE(doc.at("histograms").has("topk.ilist_size"));
}

TEST_F(ObsTest, RegisterCoreMetricsCreatesCatalog) {
  register_core_metrics();
  std::ostringstream os;
  write_metrics_json(os);
  const Json doc = parse_or_fail(os.str());
  // The catalog guarantees well-known names exist even before any run —
  // including the transient histogram, which only fills when the MNA
  // solver is exercised.
  EXPECT_TRUE(doc.at("counters").has("topk.sets_generated"));
  EXPECT_TRUE(doc.at("counters").has("topk.whatif_runs"));
  EXPECT_TRUE(doc.at("counters").has("session.whatif_edits"));
  EXPECT_TRUE(doc.at("gauges").has("session.dirty_victims"));
  EXPECT_TRUE(doc.at("counters").has("transient.solves"));
  EXPECT_TRUE(doc.at("histograms").has("transient.solve_seconds"));
  EXPECT_EQ(doc.at("histograms").at("transient.solve_seconds").at("count").number,
            0.0);
}

}  // namespace
}  // namespace tka::obs
