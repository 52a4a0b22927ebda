// JSON value model, parser and writer.
//
// The paper models the virtualizer in Yang; this reproduction serializes the
// same information model as JSON trees exchanged over the Unify interface
// (see DESIGN.md §2 for the substitution rationale). Objects preserve
// insertion order so serialized configs and their diffs are stable and
// readable.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.h"

namespace unify::json {

class Value;

/// Order-preserving string->Value map (linear lookup; virtualizer objects
/// are small and iteration/serialization dominate).
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;
  /// Adopts `entries` as they are; their keys must be distinct.
  explicit Object(std::vector<Entry> entries) noexcept
      : entries_(std::move(entries)) {}

  /// Returns the value for `key`, or nullptr when absent.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  [[nodiscard]] Value* find(std::string_view key) noexcept;

  /// Inserts or overwrites.
  Value& set(std::string key, Value value);

  /// Reserves room for `n` members.
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Returns a reference, default-constructing a null member when absent.
  Value& operator[](std::string_view key);

  /// Removes the member; returns true when it existed.
  bool erase(std::string_view key);

  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }
  [[nodiscard]] auto begin() noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() noexcept { return entries_.end(); }

  friend bool operator==(const Object& a, const Object& b);

 private:
  std::vector<Entry> entries_;
};

using Array = std::vector<Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// A JSON value: one tag and one payload (40 bytes). Strings live inline,
/// so ids that fit the small-string buffer allocate nothing; arrays and
/// objects own their elements. Value semantics throughout; copies are deep.
class Value {
 public:
  Value() noexcept = default;
  Value(std::nullptr_t) noexcept {}                               // NOLINT
  Value(bool b) noexcept : data_(b) {}                            // NOLINT
  Value(double n) noexcept : data_(n) {}                          // NOLINT
  Value(int n) noexcept : Value(static_cast<double>(n)) {}        // NOLINT
  Value(std::int64_t n) noexcept : Value(static_cast<double>(n)) {}  // NOLINT
  Value(std::size_t n) noexcept : Value(static_cast<double>(n)) {}   // NOLINT
  Value(const char* s) : data_(std::in_place_type<std::string>, s) {}  // NOLINT
  Value(std::string_view s)                                       // NOLINT
      : data_(std::in_place_type<std::string>, s) {}
  Value(std::string s) noexcept : data_(std::move(s)) {}          // NOLINT
  Value(Array a) noexcept : data_(std::move(a)) {}                // NOLINT
  Value(Object o) noexcept : data_(std::move(o)) {}               // NOLINT
  // Out of line: inlined variant copies and moves trip GCC 12's
  // -Wmaybe-uninitialized in every caller.
  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value();

  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(data_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type() == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type() == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type() == Type::kObject;
  }

  /// Typed accessors; preconditions enforced by assert.
  [[nodiscard]] bool as_bool() const noexcept { return payload<bool>(); }
  [[nodiscard]] double as_number() const noexcept {
    return payload<double>();
  }
  /// The number truncated toward zero and saturated to the int64 range
  /// (NaN reads as 0), so every double has a defined result.
  [[nodiscard]] std::int64_t as_int() const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept {
    return payload<std::string>();
  }
  [[nodiscard]] const Array& as_array() const noexcept {
    return payload<Array>();
  }
  [[nodiscard]] Array& as_array() noexcept { return payload<Array>(); }
  [[nodiscard]] const Object& as_object() const noexcept {
    return payload<Object>();
  }
  [[nodiscard]] Object& as_object() noexcept { return payload<Object>(); }

  /// Lenient lookups returning fallbacks; handy when reading configs.
  [[nodiscard]] const Value* get(std::string_view key) const noexcept;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback = {}) const;
  [[nodiscard]] double get_number(std::string_view key,
                                  double fallback = 0) const noexcept;
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] bool get_bool(std::string_view key,
                              bool fallback = false) const noexcept;

  /// Compact serialization ({"a":1}).
  [[nodiscard]] std::string dump() const;
  /// Appends the compact serialization to `out`.
  void dump_to(std::string& out) const;
  /// Pretty serialization with 2-space indent.
  [[nodiscard]] std::string dump_pretty() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  template <typename T>
  [[nodiscard]] const T& payload() const noexcept {
    assert(std::holds_alternative<T>(data_));
    return *std::get_if<T>(&data_);
  }
  template <typename T>
  [[nodiscard]] T& payload() noexcept {
    assert(std::holds_alternative<T>(data_));
    return *std::get_if<T>(&data_);
  }
  void write(std::string& out, int indent, int depth) const;

  // Alternative order matches Type.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      data_;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Errors carry a byte offset in the message. Very deep
/// nesting and objects with more than 32 distinct keys are rejected
/// (kProtocol), which keeps the work linear in the input size.
[[nodiscard]] Result<Value> parse(std::string_view text);

}  // namespace unify::json
