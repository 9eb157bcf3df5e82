#include "harness/compare.hpp"

#include <cmath>
#include <ostream>

#include "harness/harness.hpp"
#include "util/string_util.hpp"

namespace tka::bench {
namespace {

const json::Value* find_benchmark(const json::Value& doc, const std::string& name) {
  const json::Value* arr = doc.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return nullptr;
  for (const json::Value& b : arr->array) {
    const json::Value* n = b.find("name");
    if (n != nullptr && n->is_string() && n->string == name) return &b;
  }
  return nullptr;
}

/// Relative growth of `cand` over `base`, guarding tiny baselines.
double rel_increase(double base, double cand) {
  const double denom = std::max(std::abs(base), 1e-12);
  return (cand - base) / denom;
}

void compare_one(const std::string& name, const json::Value& base,
                 const json::Value& cand, const CompareOptions& opt,
                 CompareResult* result) {
  // --- time ---
  if (opt.time_threshold >= 0.0) {
    const json::Value* bt = base.find("time_s");
    const json::Value* ct = cand.find("time_s");
    if (bt != nullptr && ct != nullptr) {
      const double bm = bt->number_or("median", 0.0);
      const double cm = ct->number_or("median", 0.0);
      if (bm > 0.0) {
        ++result->metrics_compared;
        const double rel = rel_increase(bm, cm);
        if (rel > opt.time_threshold) {
          result->regressions.push_back(str::format(
              "%s: time_s.median %.6g -> %.6g (+%.1f%%, threshold +%.1f%%)",
              name.c_str(), bm, cm, 100.0 * rel, 100.0 * opt.time_threshold));
        }
      }
    }
  }

  // --- values ---
  if (opt.value_threshold >= 0.0) {
    const json::Value* bv = base.find("values");
    const json::Value* cv = cand.find("values");
    if (bv != nullptr && bv->is_object()) {
      for (const auto& [key, bval] : bv->object) {
        if (!bval.is_number()) continue;
        const json::Value* cval = cv != nullptr ? cv->find(key) : nullptr;
        if (cval == nullptr || !cval->is_number()) {
          result->regressions.push_back(str::format(
              "%s: value '%s' missing from candidate", name.c_str(), key.c_str()));
          continue;
        }
        ++result->metrics_compared;
        const double drift = std::abs(rel_increase(bval.number, cval->number));
        if (drift > opt.value_threshold) {
          result->regressions.push_back(str::format(
              "%s: value '%s' %.9g -> %.9g (drift %.3g, threshold %.3g)",
              name.c_str(), key.c_str(), bval.number, cval->number, drift,
              opt.value_threshold));
        }
      }
    }
  }

  // --- telemetry (notes only) ---
  // Runtime observations (qps, latency percentiles) are machine- and
  // load-dependent; surface the comparison for a human but never gate.
  {
    const json::Value* bt = base.find("telemetry");
    const json::Value* ct = cand.find("telemetry");
    if (bt != nullptr && bt->is_object()) {
      for (const auto& [key, bval] : bt->object) {
        if (!bval.is_number()) continue;
        const json::Value* cval = ct != nullptr ? ct->find(key) : nullptr;
        if (cval == nullptr || !cval->is_number()) continue;
        const double rel = rel_increase(bval.number, cval->number);
        result->notes.push_back(str::format(
            "%s: telemetry '%s' %.6g -> %.6g (%+.1f%%, informational)",
            name.c_str(), key.c_str(), bval.number, cval->number,
            100.0 * rel));
      }
    }
  }

  // --- counters ---
  if (opt.counter_threshold >= 0.0) {
    const json::Value* bc = base.find("counters");
    const json::Value* cc = cand.find("counters");
    const bool base_has = bc != nullptr && bc->is_object() && !bc->object.empty();
    const bool cand_has = cc != nullptr && cc->is_object() && !cc->object.empty();
    if (base_has && !cand_has) {
      // Every build records counters, so a case with none lost its
      // instrumentation. Missing only some keys reads as zero work below.
      result->regressions.push_back(name + ": candidate records no counters");
    } else if (base_has) {
      for (const auto& [key, bval] : bc->object) {
        if (!bval.is_number()) continue;
        const double cval = cc->number_or(key, 0.0);
        ++result->metrics_compared;
        const double rel = rel_increase(bval.number, cval);
        if (rel > opt.counter_threshold) {
          result->regressions.push_back(str::format(
              "%s: counter '%s' %.0f -> %.0f (+%.1f%%, threshold +%.1f%%)",
              name.c_str(), key.c_str(), bval.number, cval, 100.0 * rel,
              100.0 * opt.counter_threshold));
        }
      }
    }
  }

  // --- memory ---
  if (opt.memory_threshold >= 0.0) {
    const json::Value* bm = base.find("memory");
    const json::Value* cm = cand.find("memory");
    const double bpeak = bm != nullptr ? bm->number_or("peak_rss_bytes", 0.0) : 0.0;
    if (bpeak > 0.0) {
      const double cpeak =
          cm != nullptr ? cm->number_or("peak_rss_bytes", 0.0) : 0.0;
      if (cpeak <= 0.0) {
        // RSS readings come from /proc; a platform without them is a build
        // environment difference, not a footprint regression.
        result->notes.push_back(name +
                                ": candidate has no peak_rss_bytes, skipping");
      } else {
        ++result->metrics_compared;
        const double rel = rel_increase(bpeak, cpeak);
        if (rel > opt.memory_threshold) {
          result->regressions.push_back(str::format(
              "%s: memory.peak_rss_bytes %.0f -> %.0f (+%.1f%%, threshold "
              "+%.1f%%)",
              name.c_str(), bpeak, cpeak, 100.0 * rel,
              100.0 * opt.memory_threshold));
        }
      }
    }
  }
}

}  // namespace

CompareResult compare_bench_documents(const json::Value& base,
                                      const json::Value& candidate,
                                      const CompareOptions& opt) {
  CompareResult result;

  const double base_schema = base.number_or("schema_version", -1.0);
  const double cand_schema = candidate.number_or("schema_version", -1.0);
  if (base_schema != kBenchSchemaVersion || cand_schema != kBenchSchemaVersion) {
    result.error = str::format(
        "schema_version mismatch: baseline %g, candidate %g, tool expects %d",
        base_schema, cand_schema, kBenchSchemaVersion);
    return result;
  }

  const json::Value* bs = base.find("suite");
  const json::Value* cs = candidate.find("suite");
  if (bs == nullptr || cs == nullptr || !bs->is_string() || !cs->is_string() ||
      bs->string != cs->string) {
    result.error = "suite mismatch: these files are from different benchmarks";
    return result;
  }

  // Different scales (or smoke vs full) time different workloads; comparing
  // them is a usage error. Thread counts may differ on purpose (the CI
  // scaling check), so that only rates a note.
  const json::Value* bcfg = base.find("config");
  const json::Value* ccfg = candidate.find("config");
  if (bcfg != nullptr && ccfg != nullptr) {
    if (bcfg->number_or("scale", -1.0) != ccfg->number_or("scale", -1.0)) {
      result.error = "config.scale mismatch: runs measured different workloads";
      return result;
    }
    const double bt = bcfg->number_or("threads", -1.0);
    const double ct = ccfg->number_or("threads", -1.0);
    if (bt != ct) {
      result.notes.push_back(
          str::format("thread counts differ (%g vs %g); values must still "
                      "match (bit-identical contract), counters and times "
                      "may not",
                      bt, ct));
    }
  }

  const json::Value* barr = base.find("benchmarks");
  if (barr == nullptr || !barr->is_array()) {
    result.error = "baseline has no benchmarks array";
    return result;
  }
  for (const json::Value& b : barr->array) {
    const json::Value* n = b.find("name");
    if (n == nullptr || !n->is_string()) continue;
    const json::Value* c = find_benchmark(candidate, n->string);
    if (c == nullptr) {
      result.regressions.push_back(n->string +
                                   ": missing from candidate (coverage loss)");
      continue;
    }
    ++result.benchmarks_compared;
    compare_one(n->string, b, *c, opt, &result);
  }
  const json::Value* carr = candidate.find("benchmarks");
  if (carr != nullptr && carr->is_array()) {
    for (const json::Value& c : carr->array) {
      const json::Value* n = c.find("name");
      if (n != nullptr && n->is_string() &&
          find_benchmark(base, n->string) == nullptr) {
        result.notes.push_back(n->string + ": new in candidate (no baseline)");
      }
    }
  }
  return result;
}

int compare_bench_files(const std::string& base_path,
                        const std::string& candidate_path,
                        const CompareOptions& opt, std::ostream& out) {
  json::Value base, candidate;
  std::string error;
  if (!json::parse_file(base_path, &base, &error)) {
    out << "bench_compare: " << error << "\n";
    return 2;
  }
  if (!json::parse_file(candidate_path, &candidate, &error)) {
    out << "bench_compare: " << error << "\n";
    return 2;
  }
  const CompareResult result = compare_bench_documents(base, candidate, opt);
  if (!result.usable()) {
    out << "bench_compare: " << result.error << "\n";
    return 2;
  }
  for (const std::string& note : result.notes) out << "note: " << note << "\n";
  for (const std::string& reg : result.regressions) {
    out << "REGRESSION: " << reg << "\n";
  }
  out << "bench_compare: " << base_path << " vs " << candidate_path << ": "
      << result.benchmarks_compared << " benchmarks, "
      << result.metrics_compared << " metrics compared, "
      << result.regressions.size() << " regression"
      << (result.regressions.size() == 1 ? "" : "s") << "\n";
  return result.ok() ? 0 : 1;
}

}  // namespace tka::bench
