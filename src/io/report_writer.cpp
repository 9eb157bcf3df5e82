#include "io/report_writer.hpp"

#include <cstdio>
#include <ostream>

#include "util/json.hpp"
#include "util/string_util.hpp"

namespace tka::io {

using util::json::escape;

namespace {

std::string num(double v) { return str::format("%.9g", v); }

}  // namespace

void write_noise_report_json(std::ostream& out, const net::Netlist& nl,
                             const noise::NoiseReport& report,
                             bool include_quiet) {
  out << "{\n";
  out << "  \"design\": \"" << escape(nl.name()) << "\",\n";
  out << "  \"noiseless_delay_ns\": " << num(report.noiseless_delay) << ",\n";
  out << "  \"noisy_delay_ns\": " << num(report.noisy_delay) << ",\n";
  out << "  \"iterations\": " << report.iterations << ",\n";
  out << "  \"converged\": " << (report.converged ? "true" : "false") << ",\n";
  out << "  \"nets\": [";
  bool first = true;
  for (net::NetId n = 0; n < nl.num_nets(); ++n) {
    if (!include_quiet && report.delay_noise[n] <= 0.0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << escape(nl.net(n).name) << "\", "
        << "\"eat\": " << num(report.noisy_windows[n].eat) << ", "
        << "\"lat\": " << num(report.noisy_windows[n].lat) << ", "
        << "\"delay_noise\": " << num(report.delay_noise[n]) << "}";
  }
  out << "\n  ]\n}\n";
}

void write_topk_result_json(std::ostream& out, const net::Netlist& nl,
                            const layout::Parasitics& par,
                            const topk::TopkResult& result, int k) {
  out << "{\n";
  out << "  \"design\": \"" << escape(nl.name()) << "\",\n";
  out << "  \"mode\": \""
      << (result.mode == topk::Mode::kAddition ? "addition" : "elimination")
      << "\",\n";
  out << "  \"k\": " << k << ",\n";
  out << "  \"baseline_delay_ns\": " << num(result.baseline_delay) << ",\n";
  out << "  \"evaluated_delay_ns\": " << num(result.evaluated_delay) << ",\n";
  out << "  \"runtime_s\": " << num(result.stats.runtime_s) << ",\n";
  out << "  \"members\": [";
  for (size_t i = 0; i < result.members.size(); ++i) {
    const layout::CouplingCap& cc = par.coupling(result.members[i]);
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"net_a\": \"" << escape(nl.net(cc.net_a).name) << "\", "
        << "\"net_b\": \"" << escape(nl.net(cc.net_b).name) << "\", "
        << "\"cap_pf\": " << num(cc.cap_pf) << "}";
  }
  out << "\n  ],\n";
  out << "  \"delay_by_k\": [";
  for (size_t i = 0; i < result.estimated_delay_by_k.size(); ++i) {
    out << (i == 0 ? "" : ", ") << num(result.estimated_delay_by_k[i]);
  }
  out << "],\n";
  const topk::TopkStats& stats = result.stats;
  out << "  \"stats\": {\n";
  out << "    \"threads\": " << stats.threads << ",\n";
  out << "    \"sets_generated\": " << stats.sets_generated << ",\n";
  out << "    \"dominance_pruned\": " << stats.prune.removed_dominated << ",\n";
  out << "    \"beam_capped\": " << stats.prune.removed_beam << ",\n";
  out << "    \"max_list_size\": " << stats.max_list_size << ",\n";
  out << "    \"runtime_by_k_s\": [";
  for (size_t i = 0; i < stats.runtime_by_k.size(); ++i) {
    out << (i == 0 ? "" : ", ") << num(stats.runtime_by_k[i]);
  }
  out << "]\n  }\n}\n";
}

void write_topk_trail_csv(std::ostream& out, const topk::TopkResult& result) {
  out << "k,estimated_delay_ns,runtime_s\n";
  for (size_t i = 0; i < result.estimated_delay_by_k.size(); ++i) {
    out << (i + 1) << "," << num(result.estimated_delay_by_k[i]) << ","
        << num(result.stats.runtime_by_k[i]) << "\n";
  }
}

}  // namespace tka::io
