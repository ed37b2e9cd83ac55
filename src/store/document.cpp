#include "store/document.hpp"

#include <cstring>
#include <sstream>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace fairdms::store {

namespace {

enum class Tag : std::uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kBinary = 5,
  kArray = 6,
  kObject = 7,
};

}  // namespace

bool Value::as_bool() const {
  FAIRDMS_CHECK(is_bool(), "Value: not a bool");
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  FAIRDMS_CHECK(is_int(), "Value: not an int");
  return std::get<std::int64_t>(data_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  FAIRDMS_CHECK(is_double(), "Value: not a double");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  FAIRDMS_CHECK(is_string(), "Value: not a string");
  return std::get<std::string>(data_);
}

const Binary& Value::as_binary() const {
  FAIRDMS_CHECK(is_binary(), "Value: not binary");
  return std::get<Binary>(data_);
}

const Array& Value::as_array() const {
  FAIRDMS_CHECK(is_array(), "Value: not an array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  FAIRDMS_CHECK(is_object(), "Value: not an object");
  return std::get<Object>(data_);
}

Object& Value::as_object() {
  FAIRDMS_CHECK(is_object(), "Value: not an object");
  return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  auto it = obj.find(key);
  FAIRDMS_CHECK(it != obj.end(), "Value: missing field '", key, "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

int Value::compare(const Value& other) const {
  const auto ti = data_.index();
  const auto to = other.data_.index();
  if (ti != to) return ti < to ? -1 : 1;
  if (is_null()) return 0;
  if (is_bool()) {
    return static_cast<int>(as_bool()) - static_cast<int>(other.as_bool());
  }
  if (is_int()) {
    const auto a = as_int(), b = other.as_int();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_double()) {
    const double a = std::get<double>(data_);
    const double b = std::get<double>(other.data_);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string()) return as_string().compare(other.as_string());
  if (is_binary()) {
    const Binary& a = as_binary();
    const Binary& b = other.as_binary();
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    // Empty vectors have a null data(), which memcmp must never see (UB).
    if (a.empty()) return 0;
    return std::memcmp(a.data(), b.data(), a.size());
  }
  if (is_array()) {
    const Array& a = as_array();
    const Array& b = other.as_array();
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].compare(b[i]);
      if (c != 0) return c;
    }
    return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
  }
  // object: compare as sorted key/value sequences (std::map is sorted).
  const Object& a = as_object();
  const Object& b = other.as_object();
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
    const int ck = ia->first.compare(ib->first);
    if (ck != 0) return ck;
    const int cv = ia->second.compare(ib->second);
    if (cv != 0) return cv;
  }
  return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
}

void Value::encode(Binary& out) const {
  util::ByteWriter w(out);
  if (is_null()) {
    w.u8(static_cast<std::uint8_t>(Tag::kNull));
  } else if (is_bool()) {
    w.u8(static_cast<std::uint8_t>(Tag::kBool));
    w.u8(as_bool() ? 1 : 0);
  } else if (is_int()) {
    w.u8(static_cast<std::uint8_t>(Tag::kInt));
    w.u64(static_cast<std::uint64_t>(as_int()));
  } else if (is_double()) {
    w.u8(static_cast<std::uint8_t>(Tag::kDouble));
    w.f64(std::get<double>(data_));
  } else if (is_string()) {
    w.u8(static_cast<std::uint8_t>(Tag::kString));
    w.u64(as_string().size());
    w.bytes(as_string());
  } else if (is_binary()) {
    w.u8(static_cast<std::uint8_t>(Tag::kBinary));
    w.u64(as_binary().size());
    w.bytes(as_binary());
  } else if (is_array()) {
    w.u8(static_cast<std::uint8_t>(Tag::kArray));
    w.u64(as_array().size());
    for (const Value& v : as_array()) v.encode(out);
  } else {
    w.u8(static_cast<std::uint8_t>(Tag::kObject));
    w.u64(as_object().size());
    for (const auto& [k, v] : as_object()) {
      w.u64(k.size());
      w.bytes(k);
      v.encode(out);
    }
  }
}

std::size_t Value::encoded_size() const {
  // Mirrors encode(): 1 tag byte, then the payload (u64 lengths/values are 8
  // bytes each). Keep the two in lockstep.
  if (is_null()) return 1;
  if (is_bool()) return 2;
  if (is_int() || is_double()) return 1 + 8;
  if (is_string()) return 1 + 8 + as_string().size();
  if (is_binary()) return 1 + 8 + as_binary().size();
  if (is_array()) {
    std::size_t total = 1 + 8;
    for (const Value& v : as_array()) total += v.encoded_size();
    return total;
  }
  std::size_t total = 1 + 8;
  for (const auto& [k, v] : as_object()) {
    total += 8 + k.size() + v.encoded_size();
  }
  return total;
}

namespace {

/// Nesting deeper than this is treated as corruption: honest documents are
/// a handful of levels, and an adversarial byte stream of nested array
/// headers must not recurse the stack into the ground.
constexpr int kMaxDecodeDepth = 64;

/// Every length is checked against the *remaining* input before use, so no
/// corrupt header can trigger an oversized allocation or an out-of-bounds
/// read.
bool read_value(util::ByteReader& r, Value& out, int depth) {
  if (depth > kMaxDecodeDepth) return false;
  std::uint8_t tag = 0;
  if (!r.u8(&tag)) return false;
  switch (static_cast<Tag>(tag)) {
    case Tag::kNull:
      out = Value(nullptr);
      return true;
    case Tag::kBool: {
      std::uint8_t b = 0;
      if (!r.u8(&b)) return false;
      out = Value(b != 0);
      return true;
    }
    case Tag::kInt: {
      std::uint64_t v = 0;
      if (!r.u64(&v)) return false;
      out = Value(static_cast<std::int64_t>(v));
      return true;
    }
    case Tag::kDouble: {
      double d = 0.0;
      if (!r.f64(&d)) return false;
      out = Value(d);
      return true;
    }
    case Tag::kString: {
      std::uint64_t n = 0;
      std::string s;
      if (!r.u64(&n) || !r.bytes(n, &s)) return false;
      out = Value(std::move(s));
      return true;
    }
    case Tag::kBinary: {
      std::uint64_t n = 0;
      std::span<const std::uint8_t> b;
      if (!r.u64(&n) || !r.bytes(n, &b)) return false;
      out = Value(Binary(b.begin(), b.end()));
      return true;
    }
    case Tag::kArray: {
      std::uint64_t n = 0;
      if (!r.u64(&n)) return false;
      if (n > r.remaining()) return false;  // each element is >= 1 byte
      Array a;
      a.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        Value v;
        if (!read_value(r, v, depth + 1)) return false;
        a.push_back(std::move(v));
      }
      out = Value(std::move(a));
      return true;
    }
    case Tag::kObject: {
      std::uint64_t n = 0;
      if (!r.u64(&n)) return false;
      if (n > r.remaining() / 9) return false;  // key len u64 + tag
      Object o;
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t klen = 0;
        std::string key;
        Value v;
        if (!r.u64(&klen) || !r.bytes(klen, &key) ||
            !read_value(r, v, depth + 1)) {
          return false;
        }
        o.emplace(std::move(key), std::move(v));
      }
      out = Value(std::move(o));
      return true;
    }
  }
  return false;  // unknown tag
}

}  // namespace

std::optional<Value> Value::try_decode(std::span<const std::uint8_t> in) {
  util::ByteReader r(in);
  Value v;
  if (!read_value(r, v, 0) || !r.done()) return std::nullopt;
  return v;
}

std::string Value::to_json() const {
  std::ostringstream oss;
  if (is_null()) {
    oss << "null";
  } else if (is_bool()) {
    oss << (as_bool() ? "true" : "false");
  } else if (is_int()) {
    oss << as_int();
  } else if (is_double()) {
    oss << std::get<double>(data_);
  } else if (is_string()) {
    oss << '"' << as_string() << '"';
  } else if (is_binary()) {
    oss << "\"<" << as_binary().size() << " bytes>\"";
  } else if (is_array()) {
    oss << '[';
    const Array& a = as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) oss << ',';
      oss << a[i].to_json();
    }
    oss << ']';
  } else {
    oss << '{';
    bool first = true;
    for (const auto& [k, v] : as_object()) {
      if (!first) oss << ',';
      first = false;
      oss << '"' << k << "\":" << v.to_json();
    }
    oss << '}';
  }
  return oss.str();
}

}  // namespace fairdms::store
