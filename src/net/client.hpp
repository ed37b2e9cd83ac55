// net::Client — small blocking client for the fairDMS wire protocol.
//
// Two usage levels, freely mixable on one connection:
//  * Typed sync wrappers (label / lookup / recommend / stats /
//    request_retrain): send one request, block for its response, surface
//    the header status in the DTO. A non-kOk response (shed, draining,
//    malformed) is a *valid* result — only transport failure (peer gone,
//    undecodable response) returns nullopt.
//  * Pipelined primitives (send_* + recv_reply): fire many requests without
//    waiting, then collect responses in whatever order the server finished
//    them, matching each to its request by the returned correlation id.
//    This is how the closed-loop load generator keeps the server's
//    admission queue full from a single connection.
//
// connect() performs the hello handshake: the client requires the server
// to ack kProtocolVersion, so every later frame is known to be mutually
// intelligible. A server speaking another version refuses the hello, and
// connect() fails cleanly.
// The client is single-connection and not thread-safe: one Client per
// thread (or process — `bench/loadgen wire` forks around it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/dtos.hpp"
#include "tensor/tensor.hpp"

namespace fairdms::net {

class Client {
 public:
  Client() = default;
  ~Client() = default;  // UniqueFd closes the socket

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect + hello handshake. False on refusal, transport failure, or a
  /// server speaking a different protocol version.
  bool connect(const std::string& host, std::uint16_t port);
  /// connect() retried for up to `timeout_seconds` (the serve binary trains
  /// a world before it listens; CI clients start first and wait).
  bool connect_retry(const std::string& host, std::uint16_t port,
                     double timeout_seconds);
  [[nodiscard]] bool connected() const { return fd_.valid(); }
  void close() { fd_.reset(); }

  /// What the server declared in its hello ack (valid after connect()).
  [[nodiscard]] const HelloAck& server_limits() const { return limits_; }

  // --- pipelined primitives ------------------------------------------------

  struct Reply {
    FrameHeader header;
    Bytes payload;
  };

  /// Each send_* returns the correlation id assigned to the request, or 0
  /// on transport failure.
  std::uint64_t send_label(const service::LabelRequest& request);
  std::uint64_t send_lookup(const service::LookupRequest& request);
  std::uint64_t send_recommend(const service::RecommendRequest& request);
  std::uint64_t send_stats();
  std::uint64_t send_retrain(const service::RetrainRequest& request);
  /// Default-stream shorthand (the legacy call sites).
  std::uint64_t send_retrain(const tensor::Tensor& xs) {
    return send_retrain(service::RetrainRequest{xs, {}});
  }
  /// Raw bytes straight onto the socket — the malformed-frame probes in the
  /// tests and load generator use this to impersonate a broken peer.
  bool send_raw(const Bytes& bytes);

  /// Blocks for the next response frame (any correlation id). nullopt on
  /// EOF, transport failure, or a response that breaks the framing.
  std::optional<Reply> recv_reply();

  // --- typed sync wrappers -------------------------------------------------
  // The response's `status` field carries the header status; a shed or
  // drained request yields a default payload with that status, exactly like
  // the in-process submit() plane.

  std::optional<service::LabelResponse> label(
      const service::LabelRequest& request);
  std::optional<service::LookupResponse> lookup(
      const service::LookupRequest& request);
  std::optional<service::RecommendResponse> recommend(
      const service::RecommendRequest& request);

  /// nullopt on transport failure or a non-kOk status (stats has no status
  /// field of its own — it is served inline and never shed).
  std::optional<service::ServiceStats> stats();

  /// Returns the accepted/coalesced flag. When the server answered non-kOk
  /// (e.g. kShuttingDown) the result is false and `status_out` (optional)
  /// carries the wire status. nullopt on transport failure.
  std::optional<bool> request_retrain(
      const service::RetrainRequest& request,
      service::ServeStatus* status_out = nullptr);
  std::optional<bool> request_retrain(
      const tensor::Tensor& xs,
      service::ServeStatus* status_out = nullptr) {
    return request_retrain(service::RetrainRequest{xs, {}}, status_out);
  }

 private:
  std::uint64_t send_frame(Op op, const Bytes& payload);
  /// Sync path: wait for the reply matching `cid`, discarding any stale
  /// pipelined replies still in flight.
  std::optional<Reply> recv_matching(std::uint64_t cid);
  template <typename Response>
  std::optional<Response> roundtrip(
      Op op, const Bytes& payload,
      bool (*decoder)(std::span<const std::uint8_t>, Response*));

  UniqueFd fd_;
  HelloAck limits_;
  std::uint64_t next_cid_ = 1;
};

}  // namespace fairdms::net
