#include "ppd/util/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ppd/util/error.hpp"

namespace ppd::util::json {

namespace {

/// Writer: per byte, 0 when it is copied raw, else the character after the
/// backslash of its escape ('u' for \u00xx).
constexpr std::array<char, 256> kEscape = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = 'u';
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\r'] = 'r';
  t['\t'] = 't';
  return t;
}();

/// Reader: per character after a backslash, the byte it stands for; 0 for
/// \u (decoded separately) and for unknown escapes.
constexpr std::array<char, 256> kUnescape = [] {
  std::array<char, 256> t{};
  t['"'] = '"';
  t['\\'] = '\\';
  t['/'] = '/';
  t['b'] = '\b';
  t['f'] = '\f';
  t['n'] = '\n';
  t['r'] = '\r';
  t['t'] = '\t';
  return t;
}();

constexpr char kHex[] = "0123456789abcdef";

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("malformed JSON at byte " + std::to_string(i_) + ": " +
                     what);
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }

  bool at_end() const { return i_ == s_.size(); }

  /// Decode the string whose opening quote is at the cursor.
  std::string string() {
    if (!take('"')) fail("expected '\"'");
    std::string out;
    for (;;) {
      const std::size_t run = i_;
      while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\' &&
             static_cast<unsigned char>(s_[i_]) >= 0x20)
        ++i_;
      out.append(s_.data() + run, i_ - run);
      if (take('"')) return out;
      if (!take('\\')) fail(at_end() ? "unterminated string"
                                     : "raw control byte in string");
      if (at_end()) fail("unterminated escape");
      const char e = s_[i_++];
      if (e == 'u') {
        unsigned code = 0;
        const char* hex = s_.data() + i_;
        if (s_.size() - i_ < 4 ||
            std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
          fail("bad \\u escape");
        i_ += 4;
        if (code > 0xff) fail("\\u escape beyond U+00FF");
        out += static_cast<char>(code);
      } else if (const char c = kUnescape[static_cast<unsigned char>(e)]) {
        out += c;
      } else {
        fail("unknown escape");
      }
    }
  }

  Value value(int depth) {
    skip_ws();
    if (at_end()) fail("missing value");
    Value v;
    const char c = s_[i_];
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.scalar = string();
    } else if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) fail("nesting too deep");
      ++i_;
      const bool object = c == '{';
      v.kind = object ? Value::Kind::kObject : Value::Kind::kArray;
      const char close = object ? '}' : ']';
      if (eat(close)) return v;
      do {
        if (object) {
          skip_ws();
          std::string key = string();
          if (!eat(':')) fail("expected ':'");
          v.members.emplace_back(std::move(key), value(depth + 1));
        } else {
          v.items.push_back(value(depth + 1));
        }
      } while (eat(','));
      if (!eat(close)) fail(std::string("expected ',' or '") + close + "'");
    } else if (!literal(v, "true", Value::Kind::kBool) &&
               !literal(v, "false", Value::Kind::kBool) &&
               !literal(v, "null", Value::Kind::kNull)) {
      number(v);
    }
    return v;
  }

 private:
  /// Consume `c` if it is at the cursor.
  bool take(char c) {
    if (at_end() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  /// Consume `c` if it follows after whitespace.
  bool eat(char c) {
    skip_ws();
    return take(c);
  }

  bool literal(Value& v, std::string_view word, Value::Kind kind) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    v.kind = kind;
    v.scalar = word;
    return true;
  }

  void digits() {
    const std::size_t from = i_;
    while (!at_end() && is_digit(s_[i_])) ++i_;
    if (i_ == from) fail("expected a digit");
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void number(Value& v) {
    const std::size_t start = i_;
    take('-');
    if (!take('0')) digits();
    if (take('.')) digits();
    if (take('e') || take('E')) {
      if (!take('+')) take('-');
      digits();
    }
    v.kind = Value::Kind::kNumber;
    v.scalar = s_.substr(start, i_ - start);
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

[[noreturn]] void kind_error(const char* want) {
  throw ParseError(std::string("JSON value is not ") + want);
}

}  // namespace

void append_quoted(std::string& out, std::string_view s) {
  out.reserve(out.size() + s.size() + 2);
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto byte = static_cast<unsigned char>(s[i]);
    const char e = kEscape[byte];
    if (e == 0) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    const char esc[] = {'\\', e, '0', '0', kHex[byte >> 4], kHex[byte & 0xf]};
    out.append(esc, e == 'u' ? 6 : 2);
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

std::string quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

std::string unquote(std::string_view s) {
  Reader r(s);
  std::string out = r.string();
  if (!r.at_end()) r.fail("bytes after the string");
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Value parse(std::string_view text) {
  Reader r(text);
  Value v = r.value(0);
  r.skip_ws();
  if (!r.at_end()) r.fail("bytes after the document");
  return v;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr)
    throw ParseError("JSON member \"" + std::string(key) + "\" is missing");
  return *v;
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) kind_error("a string");
  return scalar;
}

double Value::as_number() const {
  if (kind != Kind::kNumber) kind_error("a number");
  const double v = std::strtod(scalar.c_str(), nullptr);
  if (!std::isfinite(v))
    throw ParseError("JSON number " + scalar + " overflows a double");
  return v;
}

std::uint64_t Value::as_uint() const {
  if (kind != Kind::kNumber) kind_error("a number");
  std::uint64_t v = 0;
  const char* end = scalar.data() + scalar.size();
  const auto [ptr, ec] = std::from_chars(scalar.data(), end, v);
  if (ec != std::errc() || ptr != end)
    throw ParseError("JSON number " + scalar +
                     " is not an unsigned 64-bit integer");
  return v;
}

bool Value::as_bool() const {
  if (kind != Kind::kBool) kind_error("a bool");
  return scalar == "true";
}

}  // namespace ppd::util::json
