// Machine-readable result export: JSON for tool integration, CSV for
// plotting. Hand-rolled emitters (no third-party JSON dependency) with
// proper string escaping; schemas are documented on each function.
#pragma once

#include <iosfwd>

#include "noise/iterative.hpp"
#include "topk/topk_engine.hpp"

namespace tka::io {

/// JSON schema:
/// { "design": str, "noiseless_delay_ns": num, "noisy_delay_ns": num,
///   "iterations": int, "converged": bool,
///   "nets": [ {"name": str, "eat": num, "lat": num, "delay_noise": num} ] }
/// Nets with zero delay noise are omitted from "nets" unless
/// `include_quiet` is set.
void write_noise_report_json(std::ostream& out, const net::Netlist& nl,
                             const noise::NoiseReport& report,
                             bool include_quiet = false);

/// JSON schema:
/// { "design": str, "mode": "addition"|"elimination", "k": int,
///   "baseline_delay_ns": num, "evaluated_delay_ns": num,
///   "runtime_s": num, "members": [ {"net_a": str, "net_b": str,
///   "cap_pf": num} ], "delay_by_k": [num, ...],
///   "stats": { "sets_generated": int, "dominance_pruned": int,
///              "beam_capped": int, "max_list_size": int,
///              "runtime_by_k_s": [num, ...] } }
/// Times are wall-clock seconds from the obs monotonic clock (see
/// topk::TopkStats); "sets_generated" is 0 when the library was built with
/// TKA_OBS_DISABLED.
void write_topk_result_json(std::ostream& out, const net::Netlist& nl,
                            const layout::Parasitics& par,
                            const topk::TopkResult& result, int k);

/// CSV with header "k,estimated_delay_ns,runtime_s" — one row per
/// cardinality of the engine trail (for plotting Figure-10 style curves).
void write_topk_trail_csv(std::ostream& out, const topk::TopkResult& result);

}  // namespace tka::io
