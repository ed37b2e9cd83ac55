// DataService — the multi-client, multi-stream serving facade over fairDS
// (the ROADMAP's "heavy traffic from many clients" north star, and the
// serving framing of the FAIR-models follow-up, arXiv:2207.00611).
//
// One service = N named streams (the paper's concurrent instruments:
// tomography, CookieBox, Bragg/HEDM). Each stream is an independent
// tenant — its own FairDS/collection/snapshot chain, ModelManager slice,
// RetrainPolicy, retrain executor, and admission ledger — registered in a
// StreamRegistry whose name->stream route is one pointer copy (see
// stream_registry.hpp). Every user-plane DTO carries a `stream` id; an
// empty id maps to kDefaultStreamName.
//
// Two planes per stream, shared worker pool:
//  * User plane: submit() routes the request to its stream and enqueues it
//    on the shared worker pool; the worker that executes it calls the
//    request's completion callback with the response. Each request loads
//    that stream's current immutable snapshot and runs lock-free against
//    it. Admission is two-level: the per-stream bound
//    (StreamConfig::max_pending) sheds a single saturated tenant without
//    touching the others, then the service-wide bound
//    (DataServiceConfig::max_pending) sheds when the whole facility is
//    full. Both shed with a kShedOverload response answered before
//    submit() returns — never by blocking the submitter. A request naming
//    an unregistered stream is answered the same way with kUnknownStream
//    (a structured status, not an abort).
//  * System plane: each stream owns a dedicated single-thread retrain
//    executor, so one tenant's retrain storm serializes behind its own
//    executor and never queues in front of another tenant's checks. At
//    most one check per stream is in flight (extras coalesce), and a
//    service-wide cap (max_concurrent_retrains) bounds how many streams
//    may retrain at once on a small host. The fig16 uncertainty trigger
//    runs as a per-stream RetrainPolicy: after a label request completes,
//    the policy's min-new-samples / cooldown gates decide whether to
//    enqueue a certainty check at the policy's threshold.
//
// Lifetime: every registered FairDS (and anything a ModelManager points
// at) must outlive the service. The destructor drains all planes.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/dtos.hpp"
#include "service/stream_registry.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::service {

/// Completion callback of a user-plane request (see DataService::submit).
template <typename Response>
using Done = std::function<void(Response)>;

struct DataServiceConfig {
  /// User-plane worker threads; 0 => max(2, hardware_concurrency) so even
  /// single-core hosts overlap request execution with client submission.
  std::size_t workers = 0;
  /// Service-wide admission bound: user-plane requests admitted (across
  /// all streams) but not yet picked up by a worker. 0 => unbounded.
  /// Requests already executing don't count, so total in-service work is
  /// at most `workers + max_pending`.
  std::size_t max_pending = 0;
  /// Service-wide cap on streams retraining concurrently (each stream
  /// already serializes its own checks). 0 => unbounded. A capped attempt
  /// is counted (StreamStats::retrains_capped) and dropped, exactly like
  /// a coalesced one — the next qualifying trigger retries.
  std::size_t max_concurrent_retrains = 0;
};

class DataService {
 public:
  /// Starts with an empty registry; add_stream() tenants before (or while)
  /// serving. A single-tenant caller registers one stream as
  /// kDefaultStreamName, which requests with an empty `stream` route to.
  explicit DataService(DataServiceConfig config);
  ~DataService();

  DataService(const DataService&) = delete;
  DataService& operator=(const DataService&) = delete;

  // --- stream registry ------------------------------------------------------
  /// Registers a tenant. False when the name is taken. Thread-safe against
  /// concurrent submits (registration is copy-on-write; a route is one
  /// pointer copy). `manager` is optional and only needed for
  /// RecommendRequest.
  bool add_stream(const std::string& name, fairds::FairDS& ds,
                  StreamConfig config = {},
                  const fairms::ModelManager* manager = nullptr);
  /// Empty `name` is the default-stream alias, here and everywhere below.
  [[nodiscard]] bool has_stream(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> stream_names() const;

  // --- user plane -----------------------------------------------------------
  /// Submits `request`; `done` is called exactly once with its response,
  /// with no service lock held. Unknown-stream and shed answers call it on
  /// the submitter's thread before submit() returns; an admitted request
  /// calls it on the worker that executed it, once the stream's ledger
  /// counts it answered. `done` occupies that worker while it runs. An
  /// exception escaping a request (from a caller's labeler, say) is not
  /// forwarded: like any exception in a pool task, it ends the process.
  void submit(LabelRequest request, Done<LabelResponse> done);
  void submit(LookupRequest request, Done<LookupResponse> done);
  void submit(RecommendRequest request, Done<RecommendResponse> done);
  /// Future adapter over the callback form, for in-process callers: the
  /// future is ready when `done` would have run — already ready on return
  /// for unknown-stream and shed answers.
  template <typename Request>
  [[nodiscard]] std::future<typename Request::Response> submit(
      Request request) {
    using Response = typename Request::Response;
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> future = promise->get_future();
    submit(std::move(request), [promise](Response response) {
      promise->set_value(std::move(response));
    });
    return future;
  }

  // --- system plane ---------------------------------------------------------
  /// Enqueues an async certainty check (and retrain, if certainty is below
  /// the stream's policy threshold — or its FairDS threshold when the
  /// policy leaves it 0) on a copy of `xs`, on that stream's own executor.
  /// Returns false when coalesced (a check is already in flight), capped
  /// (max_concurrent_retrains reached), or the stream is unknown; `xs` is
  /// not copied in any of those cases. Never blocks on training.
  bool request_retrain(const std::string& stream, const Tensor& xs);
  /// Default-stream shorthand for single-tenant callers.
  bool request_retrain(const Tensor& xs) { return request_retrain("", xs); }
  [[nodiscard]] bool retrain_in_flight() const;
  [[nodiscard]] bool retrain_in_flight(const std::string& stream) const;

  /// Blocks until all planes are idle (all submitted requests answered,
  /// no retrain in flight on any stream).
  void wait_idle();

  /// Service-wide gauges plus every stream's ledger in `streams`;
  /// service-wide counters are ServiceStats::totals().
  [[nodiscard]] ServiceStats stats() const;
  /// One stream's counters; default-constructed stats for an unknown name.
  [[nodiscard]] StreamStats stream_stats(const std::string& stream) const;
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// The snapshot `stream`'s queries currently serve against (nullptr for
  /// an unknown stream or before its first train). The wire front-end
  /// validates untrusted batch shapes against the *target stream's*
  /// snapshot before a request can reach an invariant-checked service
  /// path — which is also what lets tenants serve different image sizes.
  [[nodiscard]] std::shared_ptr<const fairds::Snapshot> snapshot(
      const std::string& stream) const;
  /// Whether RecommendRequest is servable on `stream` (a ModelManager was
  /// attached at registration).
  [[nodiscard]] bool has_model_manager(const std::string& stream) const;

 private:
  /// The three StreamStats counters one user-plane op owns.
  struct Ledger;
  /// The one user-plane request path behind every submit() overload:
  /// stream routing, two-level admission, timing, accounting, both shed
  /// paths and the call to `done`. `run` is the op body, executed on a
  /// worker against the stream's current snapshot.
  template <typename Response, typename Request, typename Run>
  void submit_to_stream(Request request, Done<Response> done, Ledger ledger,
                        Run run);
  /// The fig16 policy gate, evaluated after an answered label request.
  void maybe_auto_retrain(const std::shared_ptr<Stream>& stream,
                          const Tensor& xs);
  bool request_retrain_on(const std::shared_ptr<Stream>& stream,
                          const Tensor& xs);

  DataServiceConfig config_;
  StreamRegistry registry_;

  /// Streams currently running a retrain (the max_concurrent_retrains
  /// ledger) and requests that named an unknown stream.
  std::atomic<std::size_t> retrains_in_flight_{0};
  std::atomic<std::uint64_t> unknown_stream_requests_{0};
  /// Service-wide queue-depth high-water (sampled at each admission, like
  /// the per-stream marks but over the shared pool's queue).
  std::atomic<std::uint64_t> max_queue_depth_{0};

  // Pool last: its destructor runs first and drains queued tasks, which
  // may still touch the members above.
  util::ThreadPool workers_;
};

}  // namespace fairdms::service
