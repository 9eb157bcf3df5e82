// Minimal recursive-descent JSON reader.
//
// Scope: standard JSON (RFC 8259) minus exotic corners — numbers parse via
// strtod, \uXXXX escapes decode to UTF-8 (surrogate pairs supported),
// objects preserve insertion order and keep the *last* value for a
// duplicated key. Depth is capped to keep malformed input from recursing
// the stack away. This exists so the bench tools (`bench_compare`,
// `perf_report`), the analysis server's wire protocol and the tests don't
// need an external JSON dependency. The hand-rolled writers in obs/, io/,
// server/ and the bench harness share its string escaper.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tka::util::json {

/// A parsed JSON value (tagged union over the seven JSON shapes).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// `find` + type/number convenience: returns `fallback` when the member
  /// is absent or not a number.
  double number_or(std::string_view key, double fallback) const;
};

/// Parses a complete JSON document (leading/trailing whitespace allowed,
/// nothing else may follow). On failure returns false and describes the
/// problem (with a byte offset) in *error.
bool parse(std::string_view text, Value* out, std::string* error);

/// Reads and parses a file. On failure returns false with *error set.
bool parse_file(const std::string& path, Value* out, std::string* error);

/// Escapes `s` for embedding in a JSON string literal: quotes, backslashes
/// and control characters (\n, \r and \t by name, the rest as \u00XX).
std::string escape(std::string_view s);

}  // namespace tka::util::json
