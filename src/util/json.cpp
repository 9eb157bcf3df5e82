#include "util/json.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/string_util.hpp"

namespace tka::util::json {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(Value* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = str::format("JSON parse error at byte %zu: %s", pos_, what.c_str());
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out->type = Value::Type::kString;
        return parse_string(&out->string);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->type = Value::Type::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->type = Value::Type::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->type = Value::Type::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_number(Value* out) {
    const char* begin = text_.data() + pos_;
    // Validate the JSON number grammar up front; strtod accepts more
    // (hex, "inf", leading '+') than JSON allows.
    std::size_t p = pos_;
    if (p < text_.size() && text_[p] == '-') ++p;
    const std::size_t int_start = p;
    while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') ++p;
    if (p == int_start) return fail("invalid number");
    if (text_[int_start] == '0' && p - int_start > 1) return fail("leading zero");
    if (p < text_.size() && text_[p] == '.') {
      ++p;
      const std::size_t frac_start = p;
      while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') ++p;
      if (p == frac_start) return fail("invalid number");
    }
    if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
      ++p;
      if (p < text_.size() && (text_[p] == '+' || text_[p] == '-')) ++p;
      const std::size_t exp_start = p;
      while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') ++p;
      if (p == exp_start) return fail("invalid number");
    }
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end != text_.data() + p) return fail("invalid number");
    out->type = Value::Type::kNumber;
    pos_ = p;
    return true;
  }

  static void append_utf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad surrogate pair");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("lone high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_array(Value* out, int depth) {
    ++pos_;  // '['
    out->type = Value::Type::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value elem;
      skip_ws();
      if (!parse_value(&elem, depth + 1)) return false;
      out->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Value* out, int depth) {
    ++pos_;  // '{'
    out->type = Value::Type::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_++] != ':') return fail("expected ':'");
      skip_ws();
      Value val;
      if (!parse_value(&val, depth + 1)) return false;
      // Last duplicate wins, matching common lenient readers.
      bool replaced = false;
      for (auto& [k, v] : out->object) {
        if (k == key) {
          v = std::move(val);
          replaced = true;
          break;
        }
      }
      if (!replaced) out->object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

bool parse(std::string_view text, Value* out, std::string* error) {
  if (error != nullptr) error->clear();
  *out = Value();
  Parser p(text, error);
  return p.parse_document(out);
}

bool parse_file(const std::string& path, Value* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), out, error);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str::format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace tka::util::json
