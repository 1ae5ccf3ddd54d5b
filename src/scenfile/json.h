#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// Minimal strict JSON for the scenario-file layer (src/scenfile/).
///
/// The repo deliberately carries no third-party JSON dependency; scenario
/// files need only a small, strict subset: UTF-8 text, RFC 8259 grammar, no
/// comments, no trailing commas, and — stricter than the RFC — duplicate
/// object keys are errors (a duplicated axis or field in a scenario file is
/// always a mistake). Every value remembers its source line so the
/// deserializer can point at the offending field, not just "bad file".
namespace stclock::scenfile {

/// Error type for the whole scenario-file layer. what() always carries
/// "source:line:" context plus the field path where applicable, so a failing
/// grid file names the exact field that broke.
class ScenarioFileError : public std::runtime_error {
 public:
  explicit ScenarioFileError(const std::string& msg) : std::runtime_error(msg) {}
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// For numbers: the original token text. Integer fields re-parse this so
  /// 64-bit seeds survive without passing through a double.
  std::string raw;
  /// For strings: the unescaped contents.
  std::string text;
  std::vector<JsonValue> array;
  /// Insertion-ordered; duplicate keys were rejected by the parser.
  std::vector<std::pair<std::string, JsonValue>> object;
  /// 1-based source line of the value's first token.
  int line = 0;

  /// Object member lookup; nullptr when missing (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] const char* kind_name() const;
};

/// Parses one JSON document (rejecting trailing garbage). `source` names the
/// input in error messages — a file path or "<inline>".
[[nodiscard]] JsonValue parse_json(std::string_view input, const std::string& source);

/// `s` escaped for the inside of a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// `v` at max_digits10 significant digits, so it reads back bit-exactly.
/// Spec and sink numbers all print through this one formatter.
[[nodiscard]] std::string format_double(double v);

}  // namespace stclock::scenfile
