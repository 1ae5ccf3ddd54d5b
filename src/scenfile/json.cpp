#include "scenfile/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace stclock::scenfile {

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const char* JsonValue::kind_name() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "unknown";
}

namespace {

class Parser {
 public:
  Parser(std::string_view input, const std::string& source)
      : input_(input), source_(source) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != input_.size()) fail("trailing characters after the JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ScenarioFileError(source_ + ":" + std::to_string(line_) + ": " + msg);
  }

  void skip_whitespace() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= input_.size()) fail("unexpected end of input");
    return input_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "', got '" + input_[pos_] + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    JsonValue value;
    value.line = line_;
    const char c = peek();
    switch (c) {
      case '{': parse_object(value); return value;
      case '[': parse_array(value); return value;
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.text = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("invalid literal (expected \"true\")");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal (expected \"false\")");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal (expected \"null\")");
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          parse_number(value);
          return value;
        }
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_object(JsonValue& value) {
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("object keys must be strings");
      const int key_line = line_;
      std::string key = parse_string();
      if (value.find(key) != nullptr) {
        line_ = key_line;
        fail("duplicate key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = take();
      if (c == '}') return;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  void parse_array(JsonValue& value) {
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') return;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= input_.size()) fail("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c == '\n') fail("unterminated string (raw newline)");
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= input_.size()) fail("unterminated escape sequence");
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > input_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = input_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Scenario files are ASCII in practice; encode BMP code points as
          // UTF-8 and reject surrogates outright.
          if (code >= 0xD800 && code <= 0xDFFF) fail("\\u surrogates are not supported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  void parse_number(JsonValue& value) {
    value.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= input_.size() || !std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      fail("invalid number");
    }
    if (input_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < input_.size() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < input_.size() && input_[pos_] == '.') {
      ++pos_;
      if (pos_ >= input_.size() || !std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        fail("invalid number (digits required after '.')");
      }
      while (pos_ < input_.size() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < input_.size() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < input_.size() && (input_[pos_] == '+' || input_[pos_] == '-')) ++pos_;
      if (pos_ >= input_.size() || !std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        fail("invalid number (digits required in exponent)");
      }
      while (pos_ < input_.size() && std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
      }
    }
    value.raw = std::string(input_.substr(start, pos_ - start));
    value.number = std::strtod(value.raw.c_str(), nullptr);
  }

  std::string_view input_;
  const std::string& source_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

JsonValue parse_json(std::string_view input, const std::string& source) {
  return Parser(input, source).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace stclock::scenfile
