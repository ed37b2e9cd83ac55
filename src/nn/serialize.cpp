#include "nn/serialize.hpp"

#include <span>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"

namespace fairdms::nn {

namespace {

constexpr std::uint32_t kMagic = 0x46444D53;  // "FDMS"
constexpr std::uint32_t kVersion = 1;

/// FNV-1a over a byte range — cheap corruption detection.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> save_parameters(Sequential& model) {
  auto params = model.params();
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(params.size());
  for (Tensor* p : params) {
    w.u64(p->rank());
    for (std::size_t a = 0; a < p->rank(); ++a) w.u64(p->dim(a));
    w.f32s(p->flat());
  }
  w.u64(fnv1a(out));
  return out;
}

void load_parameters(Sequential& model,
                     const std::vector<std::uint8_t>& blob) {
  FAIRDMS_CHECK(blob.size() >= 24, "model blob too small");
  const std::span<const std::uint8_t> bytes(blob);
  const std::span<const std::uint8_t> payload = bytes.first(bytes.size() - 8);
  util::ByteReader tail(bytes.last(8));
  std::uint64_t stored_hash = 0;
  FAIRDMS_CHECK(tail.u64(&stored_hash), "model blob truncated (u64)");
  FAIRDMS_CHECK(fnv1a(payload) == stored_hash, "model blob checksum mismatch");

  util::ByteReader r(payload);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  FAIRDMS_CHECK(r.u32(&magic), "model blob truncated (u32)");
  FAIRDMS_CHECK(magic == kMagic, "model blob: bad magic");
  FAIRDMS_CHECK(r.u32(&version), "model blob truncated (u32)");
  FAIRDMS_CHECK(version == kVersion, "model blob: bad version");
  FAIRDMS_CHECK(r.u64(&count), "model blob truncated (u64)");
  auto params = model.params();
  FAIRDMS_CHECK(params.size() == count, "model blob has ", count,
                " tensors, model expects ", params.size());
  for (Tensor* p : params) {
    std::uint64_t rank = 0;
    FAIRDMS_CHECK(r.u64(&rank), "model blob truncated (u64)");
    FAIRDMS_CHECK(rank == p->rank(), "model blob: rank mismatch");
    for (std::uint64_t a = 0; a < rank; ++a) {
      std::uint64_t d = 0;
      FAIRDMS_CHECK(r.u64(&d), "model blob truncated (u64)");
      FAIRDMS_CHECK(d == p->dim(static_cast<std::size_t>(a)),
                    "model blob: dim mismatch");
    }
    FAIRDMS_CHECK(r.f32s(p->flat()), "model blob truncated (data)");
  }
  FAIRDMS_CHECK(r.done(), "model blob has trailing bytes");
}

void save_parameters_file(Sequential& model, const std::string& path) {
  std::string error;
  FAIRDMS_CHECK(util::write_file_atomic(path, save_parameters(model), &error),
                "cannot write model file ", path, ": ", error);
}

void load_parameters_file(Sequential& model, const std::string& path) {
  std::vector<std::uint8_t> blob;
  std::string error;
  FAIRDMS_CHECK(util::read_file(path, blob, &error), "cannot read model file ",
                path, ": ", error);
  load_parameters(model, blob);
}

}  // namespace fairdms::nn
