#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>

#include "util/annotations.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace fairdms::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kPollMillis = 100;

}  // namespace

/// One accepted socket. The read side (in / want_close) belongs to the
/// event-loop thread exclusively; the write buffer is shared with the
/// completion callbacks under `mutex` — callbacks only ever append, the
/// event loop only ever flushes, and nobody touches the fd but the loop.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  UniqueFd fd;
  Bytes in;                 ///< event-loop thread only
  bool want_close = false;  ///< event-loop thread only: close once flushed
  std::atomic<bool> closed{false};

  util::Mutex mutex{util::LockRank::kNetConnection};
  Bytes out GUARDED_BY(mutex);
  std::size_t out_off GUARDED_BY(mutex) = 0;

  /// Appends a response frame. False when the peer is already gone (the
  /// frame is dropped; the request's effects already happened server-side).
  bool enqueue(const Bytes& frame) {
    if (closed.load(std::memory_order_acquire)) return false;
    util::MutexLock lock(mutex);
    out.insert(out.end(), frame.begin(), frame.end());
    return true;
  }

  bool has_pending() {
    util::MutexLock lock(mutex);
    return out_off < out.size();
  }

  enum class FlushResult { kDrained, kBlocked, kError };
  FlushResult flush() {
    util::MutexLock lock(mutex);
    while (out_off < out.size()) {
      const ssize_t rc =
          ::send(fd.get(), out.data() + out_off, out.size() - out_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (rc > 0) {
        out_off += static_cast<std::size_t>(rc);
        continue;
      }
      if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return FlushResult::kBlocked;
      }
      if (rc < 0 && errno == EINTR) continue;
      return FlushResult::kError;
    }
    out.clear();
    out_off = 0;
    return FlushResult::kDrained;
  }
};

Server::Server(service::DataService& service, ServerConfig config)
    : service_(&service), config_(std::move(config)) {
  const int lfd = create_listener(config_.bind_address, config_.port);
  if (lfd < 0) {
    util::log_warn("net::Server: cannot listen on ", config_.bind_address,
                   ":", config_.port);
    return;
  }
  set_nonblocking(lfd);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(lfd);
    util::log_warn("net::Server: cannot create wake pipe");
    return;
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  listener_.reset(lfd);
  port_ = local_port(lfd);
  loop_thread_ = std::thread([this] { loop(); });
}

Server::~Server() { stop(); }

void Server::begin_drain() { draining_.store(true, std::memory_order_release); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  begin_drain();
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

Server::Counters Server::counters() const {
  Counters c;
  c.accepted_connections = accepted_connections_.load();
  c.frames_in = frames_in_.load();
  c.frames_out = frames_out_.load();
  c.malformed_frames = malformed_frames_.load();
  c.shed_responses = shed_responses_.load();
  c.shutdown_responses = shutdown_responses_.load();
  c.unknown_stream_responses = unknown_stream_responses_.load();
  return c;
}

void Server::wake() {
  const std::uint8_t byte = 1;
  // A full pipe already means a wakeup is pending; EAGAIN is success here.
  [[maybe_unused]] const ssize_t rc =
      ::write(wake_write_.get(), &byte, 1);
}

void Server::reply(const std::shared_ptr<Connection>& conn, Op op,
                   service::ServeStatus status, std::uint64_t correlation_id,
                   const Bytes& payload) {
  if (conn->enqueue(encode_frame(op, status, correlation_id, payload))) {
    frames_out_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::reject(const std::shared_ptr<Connection>& conn,
                    const FrameHeader& header, service::ServeStatus status,
                    std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
  reply(conn, static_cast<Op>(header.op), status, header.correlation_id, {});
}

bool Server::valid_batch_shape(const tensor::Tensor& xs,
                               const std::string& stream) const {
  const auto snap = service_->snapshot(stream);
  if (snap == nullptr) return false;
  return xs.rank() == 4 && xs.dim(0) >= 1 && xs.dim(1) == 1 &&
         xs.dim(2) == snap->image_size() && xs.dim(3) == snap->image_size();
}

template <typename Request, typename Response>
void Server::dispatch(const std::shared_ptr<Connection>& conn, Op op,
                      std::uint64_t correlation_id, Request request,
                      Bytes (*encoder)(const Response&)) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  // Runs on the worker that executed the request, or right here on the
  // event loop for a shed. Takes only the connection's mutex.
  service_->submit(
      std::move(request),
      [this, conn, op, correlation_id, encoder](Response response) {
        if (response.status == service::ServeStatus::kShedOverload) {
          shed_responses_.fetch_add(1, std::memory_order_relaxed);
        }
        reply(conn, op, response.status, correlation_id, encoder(response));
        wake();
        // Last touch of the Server: once this reaches zero, stop() may
        // return and the Server may be destroyed.
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      });
}

template <typename Request>
bool Server::admit(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header,
                   std::span<const std::uint8_t> payload,
                   bool (*decode)(std::span<const std::uint8_t>, Request*),
                   Request* request) {
  using service::ServeStatus;
  // Code cannot travel on the wire: a server without a labeler policy
  // cannot serve a label frame, whatever it carries.
  if (!decode(payload, request) ||
      (std::is_same_v<Request, service::LabelRequest> &&
       config_.fallback_labeler == nullptr)) {
    reject(conn, header, ServeStatus::kMalformedRequest, malformed_frames_);
    return false;
  }
  // Stream resolution comes before shape validation: an unregistered name
  // has no snapshot to validate against, and it deserves the structured
  // kUnknownStream answer, not kMalformedRequest. The connection stays
  // usable either way.
  if (!service_->has_stream(request->stream)) {
    reject(conn, header, ServeStatus::kUnknownStream,
           unknown_stream_responses_);
    return false;
  }
  if (!valid_batch_shape(request->xs, request->stream) ||
      (std::is_same_v<Request, service::RecommendRequest> &&
       !service_->has_model_manager(request->stream))) {
    reject(conn, header, ServeStatus::kMalformedRequest, malformed_frames_);
    return false;
  }
  if (draining_.load(std::memory_order_acquire)) {
    reject(conn, header, ServeStatus::kShuttingDown, shutdown_responses_);
    return false;
  }
  return true;
}

bool Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const FrameHeader& header,
                          std::span<const std::uint8_t> payload) {
  const std::uint64_t cid = header.correlation_id;
  const auto op = static_cast<Op>(header.op);
  switch (op) {
    case Op::kHello:
      reply(conn, op, service::ServeStatus::kOk, cid,
            encode_hello_ack({kProtocolVersion, config_.max_payload}));
      return true;
    case Op::kStats:
      // Observability stays up during a drain so operators can watch it.
      reply(conn, op, service::ServeStatus::kOk, cid,
            encode_stats_response(service_->stats()));
      return true;
    case Op::kRetrain: {
      service::RetrainRequest request;
      if (admit(conn, header, payload, &decode_retrain_request, &request)) {
        reply(conn, op, service::ServeStatus::kOk, cid,
              encode_retrain_response(
                  service_->request_retrain(request.stream, request.xs)));
      }
      return true;
    }
    case Op::kLabel: {
      service::LabelRequest request;
      if (admit(conn, header, payload, &decode_label_request, &request)) {
        request.fallback_labeler = config_.fallback_labeler;
        dispatch(conn, op, cid, std::move(request), &encode_label_response);
      }
      return true;
    }
    case Op::kLookup: {
      service::LookupRequest request;
      if (admit(conn, header, payload, &decode_lookup_request, &request)) {
        dispatch(conn, op, cid, std::move(request), &encode_lookup_response);
      }
      return true;
    }
    case Op::kRecommend: {
      service::RecommendRequest request;
      if (admit(conn, header, payload, &decode_recommend_request, &request)) {
        dispatch(conn, op, cid, std::move(request), &encode_recommend_response);
      }
      return true;
    }
  }
  // Unknown op code: the framing is intact, so answer and keep the stream.
  reject(conn, header, service::ServeStatus::kMalformedRequest,
         malformed_frames_);
  return true;
}

bool Server::drain_input(const std::shared_ptr<Connection>& conn) {
  Bytes& in = conn->in;
  std::size_t off = 0;
  bool keep = true;
  while (keep) {
    const std::size_t avail = in.size() - off;
    if (avail < kHeaderSize) break;
    const auto header =
        decode_header(std::span<const std::uint8_t>(in).subspan(off));
    if (!header) {
      // Bad magic / unparseable header: the stream itself cannot be
      // trusted, so there is no correlation id to answer to. Close.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      keep = false;
      break;
    }
    if (header->version != kProtocolVersion ||
        header->payload_len > config_.max_payload) {
      // The envelope parsed, so an error reply reaches the right request —
      // but another version's peer misreads every subsequent byte and an
      // over-cap payload will never be buffered: close after the reply.
      reject(conn, *header, service::ServeStatus::kMalformedRequest,
             malformed_frames_);
      keep = false;
      break;
    }
    if (avail < kHeaderSize + header->payload_len) break;  // partial frame
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    keep = handle_frame(
        conn, *header,
        std::span<const std::uint8_t>(in).subspan(off + kHeaderSize,
                                                  header->payload_len));
    off += kHeaderSize + header->payload_len;
  }
  if (off > 0) {
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return keep;
}

void Server::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> pfd_conn;  // pfds index -> connections_ index
  std::optional<Clock::time_point> flush_deadline;

  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);

    // Exit once every dispatched request has been answered and the answers
    // flushed — bounded by the grace period against peers that stopped
    // reading. Completions wake the loop, so this converges promptly.
    if (stopping && outstanding_.load(std::memory_order_acquire) == 0) {
      if (!flush_deadline) {
        flush_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   config_.drain_grace_seconds));
      }
      bool pending = false;
      for (const auto& conn : connections_) {
        if (!conn->closed.load(std::memory_order_acquire) &&
            conn->has_pending()) {
          pending = true;
          break;
        }
      }
      if (!pending || Clock::now() > *flush_deadline) break;
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_read_.get(), POLLIN, 0});
    if (!stopping) pfds.push_back({listener_.get(), POLLIN, 0});
    const std::size_t first_conn_pfd = pfds.size();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      auto& conn = connections_[i];
      if (conn->closed.load(std::memory_order_acquire)) continue;
      short events = stopping ? 0 : POLLIN;
      if (conn->has_pending()) events |= POLLOUT;
      pfds.push_back({conn->fd.get(), events, 0});
      pfd_conn.push_back(i);
    }

    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollMillis);

    if ((pfds[0].revents & POLLIN) != 0) {
      std::uint8_t buf[256];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    if (!stopping && (pfds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listener_.get(), nullptr, nullptr);
        if (cfd < 0) break;
        set_nonblocking(cfd);
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_connections_.fetch_add(1, std::memory_order_relaxed);
        connections_.push_back(std::make_shared<Connection>(cfd));
      }
    }

    for (std::size_t p = first_conn_pfd; p < pfds.size(); ++p) {
      auto& conn = connections_[pfd_conn[p - first_conn_pfd]];
      const short revents = pfds[p].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn->closed.store(true, std::memory_order_release);
        continue;
      }
      if (!stopping && (revents & (POLLIN | POLLHUP)) != 0) {
        std::uint8_t buf[kReadChunk];
        bool peer_gone = false;
        for (;;) {
          const ssize_t rc = ::read(conn->fd.get(), buf, sizeof(buf));
          if (rc > 0) {
            conn->in.insert(conn->in.end(), buf, buf + rc);
            continue;
          }
          if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (rc < 0 && errno == EINTR) continue;
          peer_gone = true;  // EOF or hard error
          break;
        }
        if (!conn->in.empty() && !drain_input(conn)) {
          conn->want_close = true;
        }
        if (peer_gone) conn->closed.store(true, std::memory_order_release);
      }
    }

    // Flush everything writable; callbacks may have appended since poll.
    for (auto& conn : connections_) {
      if (conn->closed.load(std::memory_order_acquire)) continue;
      const auto result = conn->flush();
      if (result == Connection::FlushResult::kError) {
        conn->closed.store(true, std::memory_order_release);
      } else if (conn->want_close &&
                 result == Connection::FlushResult::kDrained) {
        conn->closed.store(true, std::memory_order_release);
      }
    }

    // Reap: callbacks may still hold a shared_ptr; dropping ours here
    // only ends the loop's interest. The fd dies with the last reference,
    // and enqueue() on a closed connection is a silent no-op.
    std::erase_if(connections_, [](const std::shared_ptr<Connection>& c) {
      return c->closed.load(std::memory_order_acquire);
    });
  }

  for (auto& conn : connections_) {
    conn->closed.store(true, std::memory_order_release);
  }
  connections_.clear();
}

}  // namespace fairdms::net
