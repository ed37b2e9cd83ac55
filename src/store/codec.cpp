#include "store/codec.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/check.hpp"

namespace fairdms::store {

namespace {

constexpr std::uint32_t kRawMagic = 0x52415746;     // "RAWF"
constexpr std::uint32_t kPickleMagic = 0x504B4C46;  // "PKLF"
constexpr std::uint32_t kBloscMagic = 0x424C5346;   // "BLSF"

/// Every codec's header: u32 magic | u32 element count.
void write_header(util::ByteWriter& w, std::uint32_t magic, std::size_t n) {
  w.u32(magic);
  w.u32(static_cast<std::uint32_t>(n));
}

/// Reads the header, aborting on a short one or a foreign magic; returns
/// the element count.
std::uint32_t read_header(util::ByteReader& r, std::uint32_t magic,
                          const char* codec) {
  std::uint32_t got = 0;
  std::uint32_t n = 0;
  FAIRDMS_CHECK(r.u32(&got), "codec: truncated u32");
  FAIRDMS_CHECK(got == magic, codec, " codec: bad magic");
  FAIRDMS_CHECK(r.u32(&n), "codec: truncated u32");
  return n;
}

// Pickle-style opcodes. The decoder is a small interpreter: every element
// costs a tag dispatch plus value reconstruction, the property that makes
// real pickle decode CPU-bound.
enum PickleOp : std::uint8_t {
  kOpZero = 0x30,    // a 0.0f element
  kOpFloat = 0x46,   // 4-byte float follows
  kOpRepeat = 0x52,  // repeat previous element (u8 count follows)
  kOpStop = 0x2E,
};

}  // namespace

std::vector<std::uint8_t> RawCodec::encode(
    std::span<const float> values) const {
  std::vector<std::uint8_t> out;
  out.reserve(8 + values.size() * 4);
  util::ByteWriter w(out);
  write_header(w, kRawMagic, values.size());
  w.f32s(values);
  return out;
}

void RawCodec::decode(std::span<const std::uint8_t> bytes,
                      std::vector<float>& out) const {
  util::ByteReader r(bytes);
  const std::uint32_t n = read_header(r, kRawMagic, "raw");
  FAIRDMS_CHECK(r.remaining() == std::size_t{n} * 4,
                "raw codec: length mismatch");
  out.resize(n);
  (void)r.f32s(out);  // length checked above
}

std::vector<std::uint8_t> PickleCodec::encode(
    std::span<const float> values) const {
  std::vector<std::uint8_t> out;
  out.reserve(8 + values.size() * 5);
  util::ByteWriter w(out);
  write_header(w, kPickleMagic, values.size());
  std::size_t i = 0;
  while (i < values.size()) {
    const float v = values[i];
    // Count immediate repeats of the same bit pattern (pickle memoization
    // analog); keeps encoded size reasonable on sparse data.
    std::size_t run = 1;
    std::uint32_t bits_v;
    std::memcpy(&bits_v, &v, 4);
    while (i + run < values.size() && run < 255) {
      std::uint32_t bits_n;
      std::memcpy(&bits_n, &values[i + run], 4);
      if (bits_n != bits_v) break;
      ++run;
    }
    if (bits_v == 0) {  // +0.0f only; -0.0f keeps its bit pattern via kOpFloat
      w.u8(kOpZero);
    } else {
      w.u8(kOpFloat);
      w.f32(v);
    }
    if (run > 1) {
      w.u8(kOpRepeat);
      w.u8(static_cast<std::uint8_t>(run - 1));
    }
    i += run;
  }
  w.u8(kOpStop);
  return out;
}

void PickleCodec::decode(std::span<const std::uint8_t> bytes,
                         std::vector<float>& out) const {
  util::ByteReader r(bytes);
  const std::uint32_t n = read_header(r, kPickleMagic, "pickle");
  out.clear();
  out.reserve(n);
  float prev = 0.0f;
  // Interpreted opcode loop — intentionally per-element, like pickle.
  for (;;) {
    std::uint8_t op = 0;
    FAIRDMS_CHECK(r.u8(&op), "pickle codec: truncated stream");
    if (op == kOpStop) break;
    switch (op) {
      case kOpZero:
        prev = 0.0f;
        out.push_back(prev);
        break;
      case kOpFloat: {
        FAIRDMS_CHECK(r.f32(&prev), "pickle codec: truncated float");
        out.push_back(prev);
        break;
      }
      case kOpRepeat: {
        std::uint8_t count = 0;
        FAIRDMS_CHECK(r.u8(&count), "pickle codec: truncated repeat");
        for (std::uint8_t k = 0; k < count; ++k) out.push_back(prev);
        break;
      }
      default:
        FAIRDMS_CHECK(false, "pickle codec: unknown opcode ", int{op});
    }
  }
  FAIRDMS_CHECK(out.size() == n, "pickle codec: element count mismatch (",
                out.size(), " vs ", n, ")");
}

std::vector<std::uint8_t> BloscCodec::encode(
    std::span<const float> values) const {
  const std::size_t n = values.size();
  // Byte shuffle: plane b holds byte b of every element. High-order exponent
  // bytes of smooth scientific data are nearly constant -> long RLE runs.
  std::vector<std::uint8_t> shuffled(n * 4);
  const auto* src = reinterpret_cast<const std::uint8_t*>(values.data());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      shuffled[b * n + i] = src[i * 4 + b];
    }
  }

  std::vector<std::uint8_t> out;
  out.reserve(16 + n);
  util::ByteWriter w(out);
  write_header(w, kBloscMagic, n);
  // RLE over the shuffled stream: (count u8, byte) pairs for runs >= 4,
  // literal blocks otherwise.
  std::size_t i = 0;
  while (i < shuffled.size()) {
    std::size_t run = 1;
    while (i + run < shuffled.size() && run < 255 &&
           shuffled[i + run] == shuffled[i]) {
      ++run;
    }
    if (run >= 4) {
      w.u8(0x00);  // run marker
      w.u8(static_cast<std::uint8_t>(run));
      w.u8(shuffled[i]);
      i += run;
    } else {
      // Literal block: gather until the next run of >= 4 or 255 bytes.
      std::size_t lit_end = i;
      std::size_t scan = i;
      while (scan < shuffled.size() && scan - i < 255) {
        std::size_t r = 1;
        while (scan + r < shuffled.size() && r < 4 &&
               shuffled[scan + r] == shuffled[scan]) {
          ++r;
        }
        if (r >= 4) break;
        scan += 1;
        lit_end = scan;
      }
      if (lit_end == i) lit_end = i + 1;
      w.u8(0x01);  // literal marker
      w.u8(static_cast<std::uint8_t>(lit_end - i));
      w.bytes(std::span(shuffled).subspan(i, lit_end - i));
      i = lit_end;
    }
  }
  return out;
}

void BloscCodec::decode(std::span<const std::uint8_t> bytes,
                        std::vector<float>& out) const {
  util::ByteReader r(bytes);
  const std::uint32_t n = read_header(r, kBloscMagic, "blosc");
  std::vector<std::uint8_t> shuffled;
  shuffled.reserve(std::size_t{n} * 4);
  while (!r.done()) {
    std::uint8_t marker = 0;
    std::uint8_t len = 0;
    (void)r.u8(&marker);  // !done(), so at least one byte remains
    FAIRDMS_CHECK(r.u8(&len), "blosc codec: truncated block header");
    if (marker == 0x00) {
      std::uint8_t byte = 0;
      FAIRDMS_CHECK(r.u8(&byte), "blosc codec: truncated run");
      shuffled.insert(shuffled.end(), len, byte);
    } else {
      FAIRDMS_CHECK(marker == 0x01, "blosc codec: bad marker");
      std::span<const std::uint8_t> literal;
      FAIRDMS_CHECK(r.bytes(len, &literal), "blosc codec: truncated literal");
      shuffled.insert(shuffled.end(), literal.begin(), literal.end());
    }
  }
  FAIRDMS_CHECK(shuffled.size() == std::size_t{n} * 4,
                "blosc codec: shuffled size mismatch");
  out.resize(n);
  auto* dst = reinterpret_cast<std::uint8_t*>(out.data());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      dst[i * 4 + b] = shuffled[b * n + i];
    }
  }
}

std::unique_ptr<Codec> make_codec(const std::string& name) {
  if (name == "raw") return std::make_unique<RawCodec>();
  if (name == "pickle") return std::make_unique<PickleCodec>();
  if (name == "blosc") return std::make_unique<BloscCodec>();
  FAIRDMS_CHECK(false, "unknown codec: ", name);
  return nullptr;
}

}  // namespace fairdms::store
