// Shared helpers for the fairDS stored-sample field format.
//
// The fairDS write path (ingest) and read paths (snapshot fetches, the
// reuse-index rebuild's image read) must agree on how the `x` / `y` float
// vectors are (de)serialized into binary fields. One pair of helpers keeps
// them from drifting apart.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "store/document.hpp"

namespace fairdms::fairds {

inline store::Binary encode_floats(std::span<const float> values) {
  static const store::RawCodec codec;
  return codec.encode(values);
}

inline std::vector<float> decode_floats(const store::Binary& bytes) {
  static const store::RawCodec codec;
  std::vector<float> out;
  codec.decode(bytes, out);
  return out;
}

/// Projection for sample fetches: the image/label pair, nothing else.
inline const std::vector<std::string> kXYFields = {"x", "y"};

}  // namespace fairdms::fairds
