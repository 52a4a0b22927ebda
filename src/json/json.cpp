#include "json/json.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <tuple>

#include "util/strings.h"

namespace unify::json {

// ---------------------------------------------------------------- Object

const Value* Object::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Object::find(std::string_view key) noexcept {
  for (auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Object::set(std::string key, Value value) {
  if (Value* existing = find(key)) {
    *existing = std::move(value);
    return *existing;
  }
  entries_.emplace_back(std::move(key), std::move(value));
  return entries_.back().second;
}

Value& Object::operator[](std::string_view key) {
  if (Value* existing = find(key)) return *existing;
  entries_.emplace_back(std::string(key), Value{});
  return entries_.back().second;
}

bool Object::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool operator==(const Object& a, const Object& b) {
  // Order-insensitive comparison: two configs with reordered members are
  // semantically identical.
  if (a.entries_.size() != b.entries_.size()) return false;
  for (const auto& [k, v] : a.entries_) {
    const Value* other = b.find(k);
    if (other == nullptr || !(*other == v)) return false;
  }
  return true;
}

// ----------------------------------------------------------------- Value

static_assert(sizeof(Value) <= sizeof(std::string) + sizeof(void*),
              "a Value is one tag plus a payload no larger than a string");

Value::Value(const Value& other) = default;
Value::Value(Value&& other) noexcept = default;
Value& Value::operator=(const Value& other) = default;
Value& Value::operator=(Value&& other) noexcept = default;
Value::~Value() = default;

std::int64_t Value::as_int() const noexcept {
  const double n = as_number();
  // 2^63 is exact as a double; the cast is defined strictly inside +-2^63.
  constexpr double kLimit = 9223372036854775808.0;
  if (std::isnan(n)) return 0;
  if (n <= -kLimit) return std::numeric_limits<std::int64_t>::min();
  if (n >= kLimit) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(n);
}

const Value* Value::get(std::string_view key) const noexcept {
  return is_object() ? as_object().find(key) : nullptr;
}

std::string Value::get_string(std::string_view key, std::string fallback) const {
  const Value* v = get(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

double Value::get_number(std::string_view key, double fallback) const noexcept {
  const Value* v = get(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::int64_t Value::get_int(std::string_view key,
                            std::int64_t fallback) const noexcept {
  const Value* v = get(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const noexcept {
  const Value* v = get(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

// ---------------------------------------------------------------- writer

namespace {

/// Characters that serialize as themselves inside a JSON string.
constexpr bool plain(unsigned char c) noexcept {
  return c >= 0x20 && c != '"' && c != '\\';
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain characters
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (plain(c)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no Inf/NaN; null is the conventional fallback
    return;
  }
  strings::append_double(out, n);
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += as_bool() ? "true" : "false";
      return;
    case Type::kNumber:
      append_number(out, as_number());
      return;
    case Type::kString:
      append_escaped(out, as_string());
      return;
    case Type::kArray: {
      const Array& array = as_array();
      if (array.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Value& v : array) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        v.write(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      const Object& object = as_object();
      if (object.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += ':';
        if (indent > 0) out += ' ';
        v.write(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

void Value::dump_to(std::string& out) const { write(out, 0, 0); }

std::string Value::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Recursive-descent parser that builds each node in place: a value is
/// parsed straight into its slot in the enclosing container's scratch list,
/// so no node is moved through a Result. The first error is kept in
/// `error_`.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    Value v;
    skip_ws();
    if (!parse_value(v)) return std::move(*error_);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::move(*error_);
    }
    return v;
  }

 private:
  bool parse_value(Value& out) {
    if (depth_ > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't': return parse_literal("true", Value(true), out);
      case 'f': return parse_literal("false", Value(false), out);
      case 'n': return parse_literal("null", Value(nullptr), out);
      default:  return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    ++pos_;  // '{'
    const std::size_t level = enter();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      out = Value(Object{});
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') return fail("expected object key");
      if (!parse_string(key_)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      Value* slot = member_slot(level);
      if (slot == nullptr) return fail("object has too many members");
      if (!parse_value(*slot)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        auto& members = members_[level];
        out = Value(Object(std::vector<Object::Entry>(
            std::make_move_iterator(members.begin()),
            std::make_move_iterator(members.end()))));
        members.clear();
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out) {
    ++pos_;  // '['
    const std::size_t level = enter();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      out = Value(Array{});
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value(elements_[level].emplace_back())) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        auto& elements = elements_[level];
        out = Value(Array(std::make_move_iterator(elements.begin()),
                          std::make_move_iterator(elements.end())));
        elements.clear();
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  /// Opens a container one level deeper; returns its scratch level.
  std::size_t enter() {
    const auto level = static_cast<std::size_t>(depth_++);
    if (members_.size() <= level) {
      members_.resize(level + 1);
      elements_.resize(level + 1);
    }
    return level;
  }

  /// The slot for the member named key_ of the object open at `level`. A
  /// repeated key keeps its first position and takes the last value.
  /// nullptr when a new key would exceed kMaxMembers: the duplicate scan
  /// compares each key with at most kMaxMembers - 1 others, so parsing
  /// stays linear in the input.
  Value* member_slot(std::size_t level) {
    auto& members = members_[level];
    for (auto& [key, value] : members) {
      if (key == key_) {
        value = Value{};
        return &value;
      }
    }
    if (members.size() >= kMaxMembers) return nullptr;
    return &members
                .emplace_back(std::piecewise_construct,
                              std::forward_as_tuple(std::move(key_)),
                              std::forward_as_tuple())
                .second;
  }

  /// Replaces `out` with the decoded string at pos_ (an opening quote).
  /// Runs of plain characters are copied in one step; escapes take the
  /// slow path.
  bool parse_string(std::string& out) {
    assert(peek() == '"');
    ++pos_;
    out.clear();
    while (true) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() &&
             plain(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') return fail("raw control character in string");
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out += '"'; break;
        case '\\': out += '\\'; break;
        case '/':  out += '/'; break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a following \uDC00-\uDFFF.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_hex4(unsigned& value) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_literal(std::string_view word, Value value, Value& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  /// Scans the number token at pos_ and converts its span with
  /// std::from_chars, which rounds exactly as strtod does.
  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      return fail("invalid number");
    }
    // Decimal exponent of the leading significant digit (the mantissa's
    // part of it), used only to tell overflow from underflow below.
    std::int64_t magnitude = 0;
    bool significant = false;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      significant = true;
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        ++pos_;
        ++magnitude;
      }
      --magnitude;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        return fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        if (!significant) {
          --magnitude;
          significant = text_[pos_] != '0';
        }
        ++pos_;
      }
    }
    std::int64_t exponent = 0;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      bool negative = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        negative = text_[pos_] == '-';
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        // Saturates far beyond any token length, so the sign test below
        // stays exact.
        exponent = std::min<std::int64_t>(exponent * 10 + (text_[pos_] - '0'),
                                          kExponentCap);
        ++pos_;
      }
      if (negative) exponent = -exponent;
    }
    double value = 0;
    const char* first = text_.data() + start;
    const auto [ptr, ec] = std::from_chars(first, text_.data() + pos_, value);
    assert(ptr == text_.data() + pos_);
    (void)ptr;
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves `value` untouched here; strtod returns HUGE_VAL
      // on overflow and zero on underflow, both with the token's sign.
      value = magnitude + exponent > 0 ? HUGE_VAL : 0.0;
      if (*first == '-') value = -value;
    }
    out = Value(value);
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        return;
      }
    }
  }

  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool fail(std::string_view what) {
    error_ = Error{ErrorCode::kProtocol,
                   std::string(what) + " at byte " + std::to_string(pos_)};
    return false;
  }

  static constexpr int kMaxDepth = 256;
  /// Members per object. Unify messages, NFFGs, service graphs and
  /// catalogs need at most 9; the cap bounds the duplicate-key scan.
  static constexpr std::size_t kMaxMembers = 32;
  static constexpr std::int64_t kExponentCap = 100'000'000'000'000'000;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::optional<Error> error_;
  // Members and elements of the containers being parsed collect in one
  // scratch list per nesting level and move into an exactly-sized
  // container when it closes: one allocation per container, no regrowth.
  std::vector<std::vector<Object::Entry>> members_;
  std::vector<Array> elements_;
  std::string key_;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace unify::json
