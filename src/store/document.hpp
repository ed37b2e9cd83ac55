// BSON-lite document values for the MongoDB-analog store.
//
// A Value is null / bool / int64 / double / string / binary / array / object.
// Objects are the unit of storage ("documents"); the store indexes on scalar
// fields. Values serialize to a compact tagged binary form and render as JSON
// text for debugging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace fairdms::store {

class Value;

using Binary = std::vector<std::uint8_t>;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t i) : data_(i) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::size_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Binary b) : data_(std::move(b)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(data_);
  }
  [[nodiscard]] bool is_double() const {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_binary() const {
    return std::holds_alternative<Binary>(data_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(data_);
  }

  // Checked accessors (abort on type mismatch).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Binary& as_binary() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object field lookup; aborts if not an object or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Total ordering across scalar values of the same type (used by ordered
  /// indexes); heterogenous comparisons order by type tag.
  [[nodiscard]] int compare(const Value& other) const;
  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  /// Compact tagged binary serialization.
  void encode(Binary& out) const;
  /// Exact byte count encode() would produce, without materializing the
  /// buffer. O(1) per scalar/string/binary node — the store uses this to
  /// account payload sizes on every read/write without re-serializing
  /// multi-kilobyte documents.
  [[nodiscard]] std::size_t encoded_size() const;
  /// The one decoder, for *untrusted* bytes (corrupt snapshots, torn log
  /// records): nullopt on truncation, unknown tags, trailing bytes, lengths
  /// exceeding the buffer, or nesting deeper than 64 levels. Every length
  /// and count is checked against the bytes remaining before anything is
  /// allocated.
  [[nodiscard]] static std::optional<Value> try_decode(
      std::span<const std::uint8_t> in);

  /// JSON text (binary rendered as "<N bytes>").
  [[nodiscard]] std::string to_json() const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Binary, Array, Object>
      data_;
};

}  // namespace fairdms::store
