// Little-endian byte codec: the one reader and writer behind every wire,
// store and model-blob format (net/wire, store::Value, persist snapshots,
// LogEngine segments, engine.meta, the float codecs, nn parameter blobs
// and NFS metadata).
//
// Integers are little-endian; floats travel as their IEEE-754 bit pattern,
// so a round trip is bit-exact. Arrays are one bounds check plus one
// memcpy on little-endian hosts and a per-element byte swap elsewhere, so
// every format reads the same bytes on every host.
//
// ByteReader never trusts its input: every read is checked against the
// bytes *remaining* (never `pos + n`, which a hostile 64-bit length could
// wrap), and a read that does not fit returns false and leaves its output
// untouched. Callers that must abort do so through FAIRDMS_CHECK on that
// false; callers that answer errors return it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fairdms::util {

namespace bytes_detail {

inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

template <typename U>
void store_le(std::uint8_t* out, U v) {
  if constexpr (kLittleEndian) {
    std::memcpy(out, &v, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename U>
U load_le(const std::uint8_t* in) {
  U v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, in, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>(in[i]) << (8 * i));
    }
  }
  return v;
}

/// The unsigned integer a float type travels as.
template <typename F>
using BitsOf =
    std::conditional_t<sizeof(F) == 4, std::uint32_t, std::uint64_t>;

}  // namespace bytes_detail

/// Appends to a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f32(float v) { put(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  /// Raw bytes, no length prefix (each format frames its own lengths).
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void bytes(std::string_view s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Element arrays, no count prefix.
  void f32s(std::span<const float> v) { put_array(v); }
  void f64s(std::span<const double> v) { put_array(v); }

 private:
  template <typename U>
  void put(U v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(U));
    bytes_detail::store_le(out_.data() + at, v);
  }

  template <typename F>
  void put_array(std::span<const F> v) {
    if (v.empty()) return;  // an empty span's data() may be null
    if constexpr (bytes_detail::kLittleEndian) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
      out_.insert(out_.end(), p, p + v.size_bytes());
    } else {
      const std::size_t at = out_.size();
      out_.resize(at + v.size_bytes());
      for (std::size_t i = 0; i < v.size(); ++i) {
        bytes_detail::store_le(
            out_.data() + at + i * sizeof(F),
            std::bit_cast<bytes_detail::BitsOf<F>>(v[i]));
      }
    }
  }

  std::vector<std::uint8_t>& out_;
};

/// Cursor over a borrowed byte range. Every accessor returns false on
/// truncation and leaves its output untouched.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool u8(std::uint8_t* v) { return get(v); }
  [[nodiscard]] bool u16(std::uint16_t* v) { return get(v); }
  [[nodiscard]] bool u32(std::uint32_t* v) { return get(v); }
  [[nodiscard]] bool u64(std::uint64_t* v) { return get(v); }
  [[nodiscard]] bool f32(float* v) { return get_float(v); }
  [[nodiscard]] bool f64(double* v) { return get_float(v); }

  /// `n` raw bytes as a view into the input (no copy).
  [[nodiscard]] bool bytes(std::size_t n, std::span<const std::uint8_t>* out) {
    if (n > remaining()) return false;
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  /// `n` raw bytes copied into a string.
  [[nodiscard]] bool bytes(std::size_t n, std::string* out) {
    if (n > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  /// Fills all of `out` (its size is the element count).
  [[nodiscard]] bool f32s(std::span<float> out) { return get_array(out); }
  [[nodiscard]] bool f64s(std::span<double> out) { return get_array(out); }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  template <typename U>
  bool get(U* v) {
    if (remaining() < sizeof(U)) return false;
    *v = bytes_detail::load_le<U>(data_.data() + pos_);
    pos_ += sizeof(U);
    return true;
  }

  template <typename F>
  bool get_float(F* v) {
    bytes_detail::BitsOf<F> bits = {};
    if (!get(&bits)) return false;
    *v = std::bit_cast<F>(bits);
    return true;
  }

  template <typename F>
  bool get_array(std::span<F> out) {
    if (out.size() > remaining() / sizeof(F)) return false;
    if (out.empty()) return true;  // an empty span's data() may be null
    const std::uint8_t* in = data_.data() + pos_;
    if constexpr (bytes_detail::kLittleEndian) {
      std::memcpy(out.data(), in, out.size_bytes());
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::bit_cast<F>(
            bytes_detail::load_le<bytes_detail::BitsOf<F>>(in + i * sizeof(F)));
      }
    }
    pos_ += out.size_bytes();
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace fairdms::util
