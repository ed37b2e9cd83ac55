#include "net/client.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace fairdms::net {

bool Client::connect(const std::string& host, std::uint16_t port) {
  close();
  const int fd = connect_to(host, port);
  if (fd < 0) return false;
  fd_.reset(fd);
  const std::uint64_t cid = send_frame(Op::kHello, {});
  if (cid == 0) {
    close();
    return false;
  }
  const auto reply = recv_matching(cid);
  if (!reply || reply->header.status != service::ServeStatus::kOk ||
      !decode_hello_ack(reply->payload, &limits_) ||
      limits_.version != kProtocolVersion) {
    close();
    return false;
  }
  return true;
}

bool Client::connect_retry(const std::string& host, std::uint16_t port,
                           double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    if (connect(host, port)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::uint64_t Client::send_frame(Op op, const Bytes& payload) {
  if (!fd_.valid()) return 0;
  const std::uint64_t cid = next_cid_++;
  const Bytes frame = encode_frame(op, service::ServeStatus::kOk, cid, payload);
  if (!write_all(fd_.get(), frame.data(), frame.size())) {
    close();
    return 0;
  }
  return cid;
}

std::uint64_t Client::send_label(const service::LabelRequest& request) {
  return send_frame(Op::kLabel, encode_label_request(request));
}

std::uint64_t Client::send_lookup(const service::LookupRequest& request) {
  return send_frame(Op::kLookup, encode_lookup_request(request));
}

std::uint64_t Client::send_recommend(
    const service::RecommendRequest& request) {
  return send_frame(Op::kRecommend, encode_recommend_request(request));
}

std::uint64_t Client::send_stats() { return send_frame(Op::kStats, {}); }

std::uint64_t Client::send_retrain(const service::RetrainRequest& request) {
  return send_frame(Op::kRetrain, encode_retrain_request(request));
}

bool Client::send_raw(const Bytes& bytes) {
  if (!fd_.valid()) return false;
  if (!write_all(fd_.get(), bytes.data(), bytes.size())) {
    close();
    return false;
  }
  return true;
}

std::optional<Client::Reply> Client::recv_reply() {
  if (!fd_.valid()) return std::nullopt;
  std::uint8_t header_bytes[kHeaderSize];
  if (!read_exact(fd_.get(), header_bytes, kHeaderSize)) {
    close();
    return std::nullopt;
  }
  const auto header =
      decode_header(std::span<const std::uint8_t>(header_bytes, kHeaderSize));
  if (!header || header->version != kProtocolVersion ||
      header->payload_len > kDefaultMaxPayload) {
    close();
    return std::nullopt;
  }
  Reply reply;
  reply.header = *header;
  reply.payload.resize(header->payload_len);
  if (header->payload_len > 0 &&
      !read_exact(fd_.get(), reply.payload.data(), reply.payload.size())) {
    close();
    return std::nullopt;
  }
  return reply;
}

std::optional<Client::Reply> Client::recv_matching(std::uint64_t cid) {
  for (;;) {
    auto reply = recv_reply();
    if (!reply) return std::nullopt;
    if (reply->header.correlation_id == cid) return reply;
  }
}

template <typename Response>
std::optional<Response> Client::roundtrip(
    Op op, const Bytes& payload,
    bool (*decoder)(std::span<const std::uint8_t>, Response*)) {
  const std::uint64_t cid = send_frame(op, payload);
  if (cid == 0) return std::nullopt;
  const auto reply = recv_matching(cid);
  if (!reply) return std::nullopt;
  Response response;
  if (reply->header.status != service::ServeStatus::kOk) {
    response.status = reply->header.status;
    return response;
  }
  if (!decoder(reply->payload, &response)) {
    close();
    return std::nullopt;
  }
  return response;
}

std::optional<service::LabelResponse> Client::label(
    const service::LabelRequest& request) {
  return roundtrip<service::LabelResponse>(
      Op::kLabel, encode_label_request(request),
      &decode_label_response);
}

std::optional<service::LookupResponse> Client::lookup(
    const service::LookupRequest& request) {
  return roundtrip<service::LookupResponse>(
      Op::kLookup, encode_lookup_request(request),
      &decode_lookup_response);
}

std::optional<service::RecommendResponse> Client::recommend(
    const service::RecommendRequest& request) {
  return roundtrip<service::RecommendResponse>(
      Op::kRecommend, encode_recommend_request(request),
      &decode_recommend_response);
}

std::optional<service::ServiceStats> Client::stats() {
  const std::uint64_t cid = send_stats();
  if (cid == 0) return std::nullopt;
  const auto reply = recv_matching(cid);
  if (!reply || reply->header.status != service::ServeStatus::kOk) {
    return std::nullopt;
  }
  service::ServiceStats stats;
  if (!decode_stats_response(reply->payload, &stats)) {
    close();
    return std::nullopt;
  }
  return stats;
}

std::optional<bool> Client::request_retrain(
    const service::RetrainRequest& request, service::ServeStatus* status_out) {
  const std::uint64_t cid = send_retrain(request);
  if (cid == 0) return std::nullopt;
  const auto reply = recv_matching(cid);
  if (!reply) return std::nullopt;
  if (status_out != nullptr) *status_out = reply->header.status;
  if (reply->header.status != service::ServeStatus::kOk) return false;
  bool accepted = false;
  if (!decode_retrain_response(reply->payload, &accepted)) {
    close();
    return std::nullopt;
  }
  return accepted;
}

}  // namespace fairdms::net
