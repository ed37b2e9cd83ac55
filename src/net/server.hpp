// net::Server — the binary-framed TCP serving front-end over DataService.
//
// Threading model (two tiers, neither of which blocks the other):
//  * One event-loop thread owns the listening socket and every connection:
//    poll()-driven accept, non-blocking reads, frame reassembly, dispatch,
//    and non-blocking response writes. Cheap endpoints (hello, stats,
//    request_retrain) are answered inline; shed requests are answered
//    inline too — the service calls their completion callback before
//    submit() returns — so the wire-level shed path stays O(1) exactly
//    like the in-process one.
//  * label / lookup / recommend requests dispatch onto the callback form
//    of DataService::submit(). The service worker that executes a request
//    runs its callback, which encodes the response, appends it to the
//    connection's write buffer and wakes the event loop to send it — so
//    responses return in *completion* order, not request order, matched
//    to their request by the correlation id the client chose.
//
// Protocol discipline (see net/wire.hpp for the frame format):
//  * Admission sheds map to ServeStatus::kShedOverload in the response
//    header — never to a dropped connection or a silent stall.
//  * One protocol version: a frame stamped with anything but
//    kProtocolVersion (hello included) is answered kMalformedRequest and
//    the connection closes, so a peer built for another version is refused
//    at its first frame instead of misreading replies.
//  * A request naming an unregistered stream is answered with
//    ServeStatus::kUnknownStream on a connection that stays usable — a
//    structured answer, exactly like a shed, never a disconnect.
//  * A malformed frame with a trustworthy envelope (known framing, bad
//    content: unknown op, undecodable payload, wrong tensor shape) is
//    answered with kMalformedRequest and the connection stays usable. A
//    frame that breaks the framing itself (bad magic) or that the server
//    refuses to buffer (declared payload over the cap) or speaks another
//    protocol version closes the connection cleanly — after an error
//    frame wherever the header could still be parsed. The server never
//    crashes on peer-controlled bytes.
//  * Every tensor op (label / lookup / recommend / request_retrain) passes
//    the same gate before it may touch the service: decode, stream
//    resolution, shape validation against that stream's snapshot, then
//    the drain check (see admit()).
//  * begin_drain()/stop() implement graceful shutdown: draining answers
//    new user-plane requests with kShuttingDown while in-flight requests
//    complete and every buffered response is flushed (bounded by a grace
//    period against peers that stop reading) before sockets close.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/data_service.hpp"
#include "tensor/tensor.hpp"

namespace fairdms::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 => ephemeral; read back via Server::port()
  /// Per-frame payload cap; a peer declaring more is disconnected before
  /// the server buffers a single payload byte.
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Server-side policy for the label endpoint's fallback labeler (code
  /// cannot travel on the wire). Label requests against a server without
  /// one are answered kMalformedRequest.
  std::function<tensor::Tensor(const tensor::Tensor&)> fallback_labeler;
  /// Seconds stop() keeps flushing buffered responses to peers that have
  /// stopped reading before force-closing them.
  double drain_grace_seconds = 5.0;
};

class Server {
 public:
  /// Binds + listens + starts the event loop. Check ok() — construction
  /// does not abort on an unavailable port (environmental, not invariant).
  Server(service::DataService& service, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] bool ok() const { return listener_.valid(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stop admitting user-plane work: label / lookup / recommend frames are
  /// answered with ServeStatus::kShuttingDown from this point on (stats and
  /// hello keep working so operators can watch the drain). Idempotent.
  void begin_drain();

  /// begin_drain() + wait for every dispatched request to complete and
  /// every buffered response byte to flush (bounded by drain_grace_seconds
  /// per the config), then close all sockets and join the event loop.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Wire-level observability, disjoint from ServiceStats (which counts
  /// what reached the service; these count what happened on the socket).
  struct Counters {
    std::uint64_t accepted_connections = 0;
    std::uint64_t frames_in = 0;   ///< well-framed frames fully received
    std::uint64_t frames_out = 0;  ///< response frames enqueued
    std::uint64_t malformed_frames = 0;
    std::uint64_t shed_responses = 0;      ///< kShedOverload sent
    std::uint64_t shutdown_responses = 0;  ///< kShuttingDown sent
    std::uint64_t unknown_stream_responses = 0;  ///< kUnknownStream sent
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Connection;

  void loop();
  /// Parse every complete frame out of `conn`'s read buffer. Returns false
  /// when the connection must close (framing broken / peer gone).
  bool drain_input(const std::shared_ptr<Connection>& conn);
  /// Returns false when the connection must close after the reply flushes.
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  /// The gate every tensor op passes before dispatch: decode (malformed),
  /// stream resolution (unknown stream), shape plus the op's own
  /// precondition (malformed), drain (shutting down). True with `request`
  /// filled when the op may dispatch; otherwise the frame is already
  /// answered with the failing check's status.
  template <typename Request>
  bool admit(const std::shared_ptr<Connection>& conn,
             const FrameHeader& header, std::span<const std::uint8_t> payload,
             bool (*decode)(std::span<const std::uint8_t>, Request*),
             Request* request);
  /// [N, 1, S, S] with N >= 1 and S the *target stream's* snapshot image
  /// size — the shape contract every tensor endpoint enforces on untrusted
  /// input before the request can reach an invariant-checked service path.
  /// Per-stream, because tenants may serve different image sizes.
  [[nodiscard]] bool valid_batch_shape(const tensor::Tensor& xs,
                                       const std::string& stream) const;

  void reply(const std::shared_ptr<Connection>& conn, Op op,
             service::ServeStatus status, std::uint64_t correlation_id,
             const Bytes& payload);
  /// Answers a request with an error status and an empty payload, counted
  /// in `counter`.
  void reject(const std::shared_ptr<Connection>& conn,
              const FrameHeader& header, service::ServeStatus status,
              std::atomic<std::uint64_t>& counter);
  /// Submits an admitted request to the service; its completion callback
  /// answers it on `conn` (see `outstanding_`).
  template <typename Request, typename Response>
  void dispatch(const std::shared_ptr<Connection>& conn, Op op,
                std::uint64_t correlation_id, Request request,
                Bytes (*encoder)(const Response&));
  void wake();

  service::DataService* service_;
  ServerConfig config_;
  UniqueFd listener_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;
  std::uint16_t port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  /// Requests dispatched to the service and not yet answered; the event
  /// loop exits only at zero (with all buffers flushed). A completion
  /// callback's decrement is its last touch of the Server, so stop() —
  /// and with it ~Server — can return while the service's workers live on.
  std::atomic<std::size_t> outstanding_{0};

  std::atomic<std::uint64_t> accepted_connections_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint64_t> shed_responses_{0};
  std::atomic<std::uint64_t> shutdown_responses_{0};
  std::atomic<std::uint64_t> unknown_stream_responses_{0};

  /// Owned by the event-loop thread exclusively.
  std::vector<std::shared_ptr<Connection>> connections_;

  std::thread loop_thread_;
  std::atomic<bool> stopped_{false};
};

}  // namespace fairdms::net
