// Binary wire protocol for the fairDMS serving front-end.
//
// Every message on a fairDMS connection is one length-prefixed frame:
//
//   offset  size  field
//        0     4  magic      0x534D4446 ("FDMS" as little-endian bytes)
//        4     2  version    protocol version (kProtocolVersion)
//        6     1  op         Op code (label / lookup / recommend / ...)
//        7     1  status     service::ServeStatus (requests always kOk)
//        8     8  correlation id — chosen by the client, echoed verbatim in
//                 the response, so responses may return out of order and
//                 still be matched to their request
//       16     4  payload length in bytes (follows immediately)
//
// All integers are little-endian; floats travel as their IEEE-754 bit
// pattern, so an encode/decode round trip is bit-exact, and tensor and PDF
// arrays travel as bulk little-endian arrays (util/bytes.hpp). The payload
// is the op-specific DTO encoding (the structs in src/service/dtos.hpp):
// requests carry the inputs, responses carry the outputs plus serving
// metadata, and the admission status rides in the frame header so a shed
// or drained request needs no payload at all.
//
// Decoding never trusts the peer: every read is bounds-checked against the
// declared payload, tensor shapes are validated (rank/element caps,
// overflow-checked element counts) before allocation, and every decode
// entry point returns false on malformed input instead of aborting — the
// server maps that to ServeStatus::kMalformedRequest, never to a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "service/dtos.hpp"
#include "tensor/tensor.hpp"
#include "util/bytes.hpp"

namespace fairdms::net {

using Bytes = std::vector<std::uint8_t>;

inline constexpr std::uint32_t kMagic = 0x534D4446u;  // "FDMS"
/// The one protocol version both ends speak. A frame stamped with any
/// other version (hello included) is malformed: payload layouts differ
/// across versions, so a peer built for another one is refused at its
/// first frame instead of misreading replies.
inline constexpr std::uint16_t kProtocolVersion = 3;
inline constexpr std::size_t kHeaderSize = 20;

/// Default cap on a single frame's payload. Generous for image batches
/// (16 MiB ≈ a [4600, 1, 30, 30] float batch) but small enough that a
/// hostile declared length cannot make the server allocate unboundedly.
inline constexpr std::uint32_t kDefaultMaxPayload = 16u << 20;

/// Operation codes. The endpoint surface mirrors the in-process
/// DataService plane (plus the hello handshake): label / lookup /
/// recommend dispatch onto the callback form of submit(); stats and
/// retrain are answered inline by the server.
enum class Op : std::uint8_t {
  kHello = 0,      ///< version handshake; response payload: server limits
  kLabel = 1,      ///< service::LabelRequest -> LabelResponse
  kLookup = 2,     ///< service::LookupRequest -> LookupResponse
  kRecommend = 3,  ///< service::RecommendRequest -> RecommendResponse
  kStats = 4,      ///< (empty) -> service::ServiceStats
  kRetrain = 5,    ///< service::RetrainRequest -> accepted/coalesced flag
};

[[nodiscard]] constexpr const char* to_string(Op op) {
  switch (op) {
    case Op::kHello:
      return "hello";
    case Op::kLabel:
      return "label";
    case Op::kLookup:
      return "lookup";
    case Op::kRecommend:
      return "recommend";
    case Op::kStats:
      return "stats";
    case Op::kRetrain:
      return "request_retrain";
  }
  return "unknown";
}

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  std::uint8_t op = 0;  ///< raw byte: may be an op code we do not know
  service::ServeStatus status = service::ServeStatus::kOk;
  std::uint64_t correlation_id = 0;
  std::uint32_t payload_len = 0;
};

/// Hello response payload: what the server is willing to speak.
struct HelloAck {
  std::uint16_t version = kProtocolVersion;
  std::uint32_t max_payload = kDefaultMaxPayload;
};

// --- wire-only encodings ---------------------------------------------------
// The three composite fields the DTO payloads share, over the util byte
// codec. Readers return false on truncation or an out-of-cap value.

/// u32 length + bytes.
void write_string(util::ByteWriter& w, const std::string& s);
[[nodiscard]] bool read_string(util::ByteReader& r, std::string* s,
                               std::size_t max_len = 1 << 16);

/// u32 rank, u64 dims, then the f32 elements as one little-endian array.
/// The reader caps the rank and checks the element count against the
/// bytes remaining before it allocates.
void write_tensor(util::ByteWriter& w, const tensor::Tensor& t);
[[nodiscard]] bool read_tensor(util::ByteReader& r, tensor::Tensor* t);

/// u32 count + f64s.
void write_pdf(util::ByteWriter& w, const std::vector<double>& p);
[[nodiscard]] bool read_pdf(util::ByteReader& r, std::vector<double>* p,
                            std::size_t max_len = 1 << 16);

// --- frames -----------------------------------------------------------------

/// One complete frame: header (stamped kProtocolVersion) + payload, ready
/// to write to a socket.
[[nodiscard]] Bytes encode_frame(Op op, service::ServeStatus status,
                                 std::uint64_t correlation_id,
                                 const Bytes& payload);

/// Decodes the 20-byte header. nullopt on short input, wrong magic, or a
/// status byte outside the ServeStatus range. The version is NOT validated
/// here — the caller decides how to answer a version mismatch.
[[nodiscard]] std::optional<FrameHeader> decode_header(
    std::span<const std::uint8_t> bytes);

// --- DTO payload codecs -----------------------------------------------------
// Encoders produce the payload only (the status travels in the header);
// decoders return false on any malformed input and require the payload to
// be fully consumed. Request payloads end with the target stream name
// (empty => the default stream).

[[nodiscard]] Bytes encode_hello_ack(const HelloAck& ack);
[[nodiscard]] bool decode_hello_ack(std::span<const std::uint8_t> payload,
                                    HelloAck* ack);

/// The wire LabelRequest carries xs + threshold only: the fallback labeler
/// is code and stays a server-side policy (net::ServerConfig), exactly as
/// the paper's conventional labeler runs beside the data service, not on
/// the beamline client.
[[nodiscard]] Bytes encode_label_request(const service::LabelRequest& req);
[[nodiscard]] bool decode_label_request(std::span<const std::uint8_t> payload,
                                        service::LabelRequest* req);
[[nodiscard]] Bytes encode_label_response(const service::LabelResponse& resp);
[[nodiscard]] bool decode_label_response(std::span<const std::uint8_t> payload,
                                         service::LabelResponse* resp);

[[nodiscard]] Bytes encode_lookup_request(const service::LookupRequest& req);
[[nodiscard]] bool decode_lookup_request(
    std::span<const std::uint8_t> payload, service::LookupRequest* req);
[[nodiscard]] Bytes encode_lookup_response(
    const service::LookupResponse& resp);
[[nodiscard]] bool decode_lookup_response(
    std::span<const std::uint8_t> payload, service::LookupResponse* resp);

[[nodiscard]] Bytes encode_recommend_request(
    const service::RecommendRequest& req);
[[nodiscard]] bool decode_recommend_request(
    std::span<const std::uint8_t> payload, service::RecommendRequest* req);
[[nodiscard]] Bytes encode_recommend_response(
    const service::RecommendResponse& resp);
[[nodiscard]] bool decode_recommend_response(
    std::span<const std::uint8_t> payload, service::RecommendResponse* resp);

/// The stats body: the ServiceStats gauges, a u32 stream count, then one
/// block per stream (its name and every StreamStats counter). Service-wide
/// counters are not sent; the receiver folds them with totals().
[[nodiscard]] Bytes encode_stats_response(const service::ServiceStats& stats);
[[nodiscard]] bool decode_stats_response(
    std::span<const std::uint8_t> payload, service::ServiceStats* stats);

[[nodiscard]] Bytes encode_retrain_request(
    const service::RetrainRequest& req);
[[nodiscard]] bool decode_retrain_request(
    std::span<const std::uint8_t> payload, service::RetrainRequest* req);
[[nodiscard]] Bytes encode_retrain_response(bool accepted);
[[nodiscard]] bool decode_retrain_response(
    std::span<const std::uint8_t> payload, bool* accepted);

}  // namespace fairdms::net
