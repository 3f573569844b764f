// The one JSON codec behind every JSON file, event and reply the repository
// writes or reads: checkpoints and quarantine reports, metrics snapshots,
// traces, logs, lint reports, and the service's events, STATS replies and
// session journal.
//
// The writer escapes `"`, `\`, \n, \r and \t by name and every other byte
// below 0x20 as lowercase \u00xx; all other bytes (UTF-8 included) pass
// through raw, so any byte string round-trips through unquote().
//
// The reader accepts one RFC 8259 document, with containers nested at most
// kMaxDepth deep and \u escapes up to U+00FF (the writer emits only \u00xx),
// and throws ppd::ParseError on anything else: raw control bytes in a
// string, whitespace other than space, tab, \n and \r, trailing bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppd::util::json {

inline constexpr int kMaxDepth = 32;

/// Append `s` as a quoted JSON string to `out`.
void append_quoted(std::string& out, std::string_view s);

/// `s` as a quoted JSON string.
[[nodiscard]] std::string quote(std::string_view s);

/// Decode one quoted JSON string; `s` must hold exactly that string.
[[nodiscard]] std::string unquote(std::string_view s);

/// "%.17g" text of `v` (round-trips a double), or "null" when `v` is not
/// finite.
[[nodiscard]] std::string number(double v);

/// A parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  /// kNumber: the number's text; kBool: "true"/"false"; kString: the
  /// decoded bytes.
  std::string scalar;
  std::vector<std::pair<std::string, Value>> members;  ///< kObject, in order
  std::vector<Value> items;                            ///< kArray

  /// First member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Like find(), but throws ParseError when the member is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// The typed accessors throw ParseError on a value of another kind, and
  /// on a number out of their range: as_number() on overflow, as_uint()
  /// unless it is a plain decimal that fits 64 bits.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] bool as_bool() const;
};

/// Parse one complete JSON document.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace ppd::util::json
