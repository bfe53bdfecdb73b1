// Minimal JSON support for the report layer: string escaping, a
// locale-independent number formatter, a small recursive-descent
// parser used by the amdmb_report aggregator, the daemon's request
// reader and the round-trip tests, and the checked conversion of a
// parsed number into an integer.
// No external dependency — the documents we read are the ones we write.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amdmb::report {

/// JSON string escaping (quotes, backslashes, control characters).
/// Non-ASCII bytes (e.g. the em-dash in figure ids) pass through as
/// UTF-8.
std::string JsonEscape(std::string_view text);

/// Shortest round-trippable representation, locale-independent.
std::string JsonNumber(double v);

/// A parsed JSON document. Arrays/objects own their children; object
/// member order is preserved (the compat tests inspect key sets).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Arrays and objects nest at most this deep; our deepest document
  /// nests 5 levels. The parser recurses once per level, so the bound
  /// keeps a hostile line from exhausting the stack.
  static constexpr int kMaxDepth = 64;

  /// Parses one JSON document (the whole input must be consumed apart
  /// from trailing whitespace). Throws ConfigError with the byte offset
  /// on malformed input or nesting deeper than kMaxDepth.
  static JsonValue Parse(std::string_view text);

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }

  /// Typed accessors; each throws ConfigError when the value has a
  /// different type.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups with defaults for optional keys.
  std::string StringOr(std::string_view key, std::string fallback) const;
  double NumberOr(std::string_view key, double fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

/// The one conversion of a number read from outside into an integer:
/// `value` must be a number that is whole and in [0, max]. `max` is at
/// most 2^53, the default, past which doubles skip integers. Anything
/// else is a ConfigError naming `key`, never an undefined
/// float-to-integer cast.
std::uint64_t AsU64(const JsonValue& value, std::string_view key,
                    std::uint64_t max = std::uint64_t{1} << 53);

/// AsU64 of `object[key]`; `fallback` when the key is absent.
std::uint64_t U64Or(const JsonValue& object, std::string_view key,
                    std::uint64_t fallback,
                    std::uint64_t max = std::uint64_t{1} << 53);

/// Signed form of AsU64: a whole number in [min, max], both bounds
/// within ±2^53.
std::int64_t AsI64(const JsonValue& value, std::string_view key,
                   std::int64_t min, std::int64_t max);

}  // namespace amdmb::report
