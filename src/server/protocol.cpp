#include "server/protocol.hpp"

#include <cmath>
#include <limits>

#include "util/json.hpp"
#include "util/string_util.hpp"

namespace tka::server {
namespace {

using util::json::Value;

/// Exact round-trip double: 17 significant digits reproduce the bit
/// pattern through strtod on every IEEE-754 platform.
std::string num17(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  return str::format("%.17g", v);
}

/// Reads `v` as a T: an integral number in [0, max T]. Anything else —
/// negative, fractional, too large, not a number — is refused, so no id
/// aliases another and no cast overflows.
template <typename T>
bool get_uint(const Value& v, T* out) {
  // 2^digits is exact as a double; the negated test also refuses NaN.
  if (!v.is_number() || !(v.number >= 0.0) ||
      v.number >= std::ldexp(1.0, std::numeric_limits<T>::digits) ||
      v.number != std::floor(v.number)) {
    return false;
  }
  *out = static_cast<T>(v.number);
  return true;
}

/// Reads member `key` of `obj` as a T; false when absent or not a T.
template <typename T>
bool get_uint(const Value& obj, std::string_view key, T* out) {
  const Value* v = obj.find(key);
  return v != nullptr && get_uint(*v, out);
}

/// Reads an array of coupling ids.
bool get_id_array(const Value& obj, std::string_view key,
                  std::vector<layout::CapId>* out, std::string* message) {
  const Value* v = obj.find(key);
  if (v == nullptr) return true;  // absent = empty
  if (!v->is_array()) {
    *message = str::format("'%.*s' must be an array of ids",
                           static_cast<int>(key.size()), key.data());
    return false;
  }
  for (const Value& e : v->array) {
    layout::CapId id = 0;
    if (!get_uint(e, &id)) {
      *message = str::format("'%.*s' entries must be integer ids below 2^32",
                             static_cast<int>(key.size()), key.data());
      return false;
    }
    out->push_back(id);
  }
  return true;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kUnknownDesign: return "unknown_design";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kLoadFailed: return "load_failed";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

bool parse_request(const std::string& payload, Request* out, ErrorCode* code,
                   std::string* message) {
  Value doc;
  std::string parse_err;
  if (!util::json::parse(payload, &doc, &parse_err)) {
    *code = ErrorCode::kParseError;
    *message = parse_err;
    return false;
  }
  *code = ErrorCode::kBadRequest;
  if (!doc.is_object()) {
    *message = "request must be a JSON object";
    return false;
  }
  // id is optional (defaults to 0) but must be numeric when present.
  if (const Value* id = doc.find("id"); id != nullptr) {
    if (!get_uint(*id, &out->id)) {
      *message = "'id' must be an integer in [0, 2^64)";
      return false;
    }
  }
  const Value* op = doc.find("op");
  if (op == nullptr || !op->is_string() || op->string.empty()) {
    *message = "missing or non-string 'op'";
    return false;
  }
  out->op = op->string;

  if (const Value* d = doc.find("design"); d != nullptr) {
    if (!d->is_string()) {
      *message = "'design' must be a string";
      return false;
    }
    out->design = d->string;
  }
  if (const Value* kv = doc.find("k"); kv != nullptr) {
    if (!kv->is_number() || kv->number < 1.0 || kv->number > 1e6 ||
        kv->number != std::floor(kv->number)) {
      *message = "'k' must be a positive integer";
      return false;
    }
    out->k = static_cast<int>(kv->number);
  }
  if (const Value* m = doc.find("mode"); m != nullptr) {
    if (m->is_string() && (m->string == "add" || m->string == "addition")) {
      out->mode = topk::Mode::kAddition;
    } else if (m->is_string() &&
               (m->string == "elim" || m->string == "elimination")) {
      out->mode = topk::Mode::kElimination;
    } else {
      *message = "'mode' must be \"add\" or \"elim\"";
      return false;
    }
  }

  if (out->op == "what_if") {
    if (!get_id_array(doc, "zero", &out->edit.zero_couplings, message) ||
        !get_id_array(doc, "shield", &out->edit.shield_couplings, message)) {
      return false;
    }
    if (const Value* rz = doc.find("resize"); rz != nullptr) {
      if (!rz->is_array()) {
        *message = "'resize' must be an array of {gate, cell} objects";
        return false;
      }
      for (const Value& e : rz->array) {
        session::WhatIfEdit::Resize r;
        if (!e.is_object() || !get_uint(e, "gate", &r.gate) ||
            !get_uint(e, "cell", &r.cell_index)) {
          *message = "'resize' entries must be {\"gate\": N, \"cell\": N}";
          return false;
        }
        out->edit.resizes.push_back(r);
      }
    }
    if (out->edit.empty()) {
      *message = "what_if requires at least one of zero/shield/resize";
      return false;
    }
  }

  if (out->op == "load") {
    const Value* p = doc.find("netlist_path");
    if (p == nullptr || !p->is_string()) {
      *message = "load requires a string 'netlist_path'";
      return false;
    }
    out->netlist_path = p->string;
    if (const Value* s = doc.find("spef_path"); s != nullptr) {
      if (!s->is_string()) {
        *message = "'spef_path' must be a string";
        return false;
      }
      out->spef_path = s->string;
    }
  }
  return true;
}

std::string make_error_response(std::uint64_t id, ErrorCode code,
                                const std::string& message) {
  return str::format(
      "{\"id\": %llu, \"ok\": false, \"error\": {\"code\": \"%s\", "
      "\"message\": \"%s\"}}",
      static_cast<unsigned long long>(id), error_code_name(code),
      util::json::escape(message).c_str());
}

std::string make_ok_response(std::uint64_t id, std::uint64_t epoch,
                             const std::string& extra) {
  std::string out = str::format("{\"id\": %llu, \"ok\": true, \"epoch\": %llu",
                                static_cast<unsigned long long>(id),
                                static_cast<unsigned long long>(epoch));
  if (!extra.empty()) {
    out += ", ";
    out += extra;
  }
  out += "}";
  return out;
}

std::string render_topk_result(const net::Netlist& nl,
                               const layout::Parasitics& par,
                               const topk::TopkResult& result, int k) {
  std::string out = "{";
  out += str::format(
      "\"mode\": \"%s\", \"k\": %d",
      result.mode == topk::Mode::kAddition ? "addition" : "elimination", k);
  out += ", \"baseline_delay_ns\": " + num17(result.baseline_delay);
  out += ", \"estimated_delay_ns\": " + num17(result.estimated_delay);
  out += ", \"evaluated_delay_ns\": " + num17(result.evaluated_delay);
  out += ", \"members\": [";
  bool first = true;
  for (layout::CapId id : result.members) {
    const layout::CouplingCap& cc = par.coupling(id);
    out += str::format(
        "%s{\"cap\": %u, \"net_a\": \"%s\", \"net_b\": \"%s\", \"cap_pf\": %s}",
        first ? "" : ", ", static_cast<unsigned>(id),
        util::json::escape(nl.net(cc.net_a).name).c_str(),
        util::json::escape(nl.net(cc.net_b).name).c_str(),
        num17(cc.cap_pf).c_str());
    first = false;
  }
  out += "], \"estimated_delay_by_k\": [";
  first = true;
  for (double d : result.estimated_delay_by_k) {
    out += (first ? "" : ", ") + num17(d);
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace tka::server
