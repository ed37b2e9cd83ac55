// Array serialization codecs.
//
// The paper stores training samples in MongoDB serialized with either Pickle
// (Python's generic object serializer — cheap to write, expensive to parse)
// or Blosc (a shuffling, block-compressing codec — smaller payloads, cheap
// SIMD-friendly decode). Figs. 6–8 hinge on the *relative* costs:
//   raw file bytes (NFS)  <  Blosc decode  <  Pickle decode
// and on Blosc producing the smallest payloads on smooth scientific images.
//
// We reproduce those cost/size shapes with honest implementations:
//  * PickleCodec writes a per-element tagged stream that the decoder must
//    parse element by element (mirroring pickle's opcode interpreter).
//  * BloscCodec byte-shuffles the float array (grouping all byte-0s, then
//    byte-1s, ...) and run-length-encodes the shuffled stream; smooth images
//    have near-constant high bytes, which RLE collapses.
//  * RawCodec copies the array as is (the NFS/H5 direct-read path).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fairdms::store {

class Codec {
 public:
  virtual ~Codec() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> encode(
      std::span<const float> values) const = 0;
  /// Decodes into `out` (resized as needed). Aborts on malformed input.
  virtual void decode(std::span<const std::uint8_t> bytes,
                      std::vector<float>& out) const = 0;
};

/// Pass-through: header + the floats as one little-endian IEEE754 array
/// (a memcpy on little-endian hosts).
class RawCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "raw"; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const float> values) const override;
  void decode(std::span<const std::uint8_t> bytes,
              std::vector<float>& out) const override;
};

/// Tagged per-element stream with an interpreted decoder (pickle analog).
class PickleCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "pickle"; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const float> values) const override;
  void decode(std::span<const std::uint8_t> bytes,
              std::vector<float>& out) const override;
};

/// Byte-shuffle + run-length compression (Blosc analog).
class BloscCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "blosc"; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const float> values) const override;
  void decode(std::span<const std::uint8_t> bytes,
              std::vector<float>& out) const override;
};

/// Factory by name ("raw" | "pickle" | "blosc").
std::unique_ptr<Codec> make_codec(const std::string& name);

}  // namespace fairdms::store
