// Request/response DTOs of the fairDMS serving layer.
//
// The service API is asynchronous: clients build a request, submit() it to
// the DataService with a completion callback (or take a std::future from
// the in-process adapter), and receive the response. Requests carry
// everything the user plane needs; responses carry the result plus serving
// metadata (which model version answered, how long execution took), so
// clients can detect when a background retrain has published a new model
// mid-stream.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor.hpp"

namespace fairdms::service {

using tensor::Tensor;

/// Serving outcome of a submitted request. Every response carries one:
/// kOk means the request executed against a snapshot; kShedOverload means
/// the service's bounded pending queue was full at submission time and the
/// request was rejected *without* executing — it is answered before
/// submit() returns, its payload is default-constructed, and the caller is
/// expected to back off and retry. Shedding is the load policy (paper's
/// beamline bursts + retrain storms): a saturated service answers "not
/// now" in O(1) instead of growing an unbounded backlog.
///
/// The remaining statuses are produced by the wire front-end (src/net/),
/// which answers over the same response DTOs: kMalformedRequest means the
/// request frame could not be decoded (the request never reached the
/// service), kShuttingDown means the server is draining and no longer
/// admits user-plane work (in-flight requests still complete and are
/// flushed before the socket closes). Both carry default payloads; neither
/// is ever produced by the in-process submit() path.
///
/// kUnknownStream means the request named a stream the service has not
/// registered. It is a structured answer, not an abort: the in-process
/// path answers it before submit() returns, the wire path answers it on a
/// connection that stays usable — a hostile or stale stream id can never
/// crash the service or poison the connection.
enum class ServeStatus : std::uint8_t {
  kOk = 0,
  kShedOverload = 1,
  kMalformedRequest = 2,
  kShuttingDown = 3,
  kUnknownStream = 4,
};

[[nodiscard]] constexpr const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kShedOverload:
      return "shed_overload";
    case ServeStatus::kMalformedRequest:
      return "malformed_request";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
    case ServeStatus::kUnknownStream:
      return "unknown_stream";
  }
  return "unknown";
}

/// Name every user-plane request routes by when it leaves the `stream`
/// field empty — what single-tenant callers register their one stream as.
inline constexpr const char* kDefaultStreamName = "default";

struct LabelResponse;
struct LookupResponse;
struct RecommendResponse;

/// Per-sample label acquisition (the Fig. 9 reuse workload): reuse stored
/// labels within `threshold` embedding distance, fall back to
/// `fallback_labeler` for the rest. The labeler may be invoked on the
/// service's worker threads and must be thread-compatible (it is called at
/// most once per request, never concurrently within one request).
struct LabelRequest {
  using Response = LabelResponse;
  Tensor xs;  ///< [N, 1, S, S]
  double threshold = 0.5;
  std::function<Tensor(const Tensor&)> fallback_labeler;
  std::string stream = {};  ///< target stream; empty => kDefaultStreamName
};

struct LabelResponse {
  ServeStatus status = ServeStatus::kOk;
  nn::Batchset batch;
  fairds::ReuseStats reuse;
  std::uint64_t snapshot_version = 0;  ///< model version that served this
  double seconds = 0.0;                ///< execution time (queue wait excluded)
};

/// Dataset lookup: a PDF-matched labeled dataset of |xs| samples from
/// history. `seed` drives all sampling, so identical requests against the
/// same model version return identical batches.
struct LookupRequest {
  using Response = LookupResponse;
  Tensor xs;  ///< [N, 1, S, S]
  std::uint64_t seed = 0;
  std::string stream = {};  ///< target stream; empty => kDefaultStreamName
};

struct LookupResponse {
  ServeStatus status = ServeStatus::kOk;
  nn::Batchset batch;
  std::uint64_t snapshot_version = 0;
  double seconds = 0.0;
};

/// Foundation-model recommendation: rank the zoo's `architecture` models by
/// JSD between their training-data PDF and the PDF of `xs`.
struct RecommendRequest {
  using Response = RecommendResponse;
  std::string architecture;
  Tensor xs;  ///< [N, 1, S, S]
  std::string stream = {};  ///< target stream; empty => kDefaultStreamName
};

/// System-plane drift probe (the wire kRetrain op): ask `stream`'s
/// retrain executor to run a certainty check on `xs`.
struct RetrainRequest {
  Tensor xs;  ///< [N, 1, S, S]
  std::string stream = {};  ///< target stream; empty => kDefaultStreamName
};

struct RecommendResponse {
  ServeStatus status = ServeStatus::kOk;
  std::optional<fairms::Ranked> pick;  ///< nullopt => train from scratch
  std::vector<double> pdf;             ///< the query's cluster-PDF
  std::uint64_t snapshot_version = 0;
  double seconds = 0.0;
};

/// Per-stream serving counters (a snapshot copy; see DataService::stats).
/// Every mutable ledger the service keeps is per-stream; service-wide
/// totals are folded from these at read time (ServiceStats::totals).
///
/// Admission accounting invariant (holds exactly once the service is idle;
/// transiently `requests >= answered + shed` while requests are in
/// flight): for each op type, `*_requests == *_answered + *_shed`. The
/// `*_requests` counters count every submit() call that named this
/// stream, accepted or not.
struct StreamStats {
  std::string stream;  ///< registry name (never empty)
  std::uint64_t label_requests = 0;
  std::uint64_t lookup_requests = 0;
  std::uint64_t recommend_requests = 0;
  std::uint64_t label_answered = 0;
  std::uint64_t lookup_answered = 0;
  std::uint64_t recommend_answered = 0;
  std::uint64_t label_shed = 0;
  std::uint64_t lookup_shed = 0;
  std::uint64_t recommend_shed = 0;
  /// Requests admitted to this stream but not yet picked up by a worker
  /// (point-in-time gauge) and its high-water mark.
  std::uint64_t queue_depth = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t max_pending = 0;  ///< per-stream bound (0 = global only)
  std::uint64_t samples_labeled = 0;
  std::uint64_t labels_reused = 0;
  std::uint64_t labels_computed = 0;
  double busy_seconds = 0.0;         ///< summed request execution time
  double max_request_seconds = 0.0;  ///< slowest single request
  std::uint64_t retrain_checks = 0;  ///< system-plane certainty evaluations
  std::uint64_t retrains = 0;        ///< checks that triggered a retrain
  /// request_retrain calls dropped into an already in-flight check — the
  /// system plane's admission control, surfaced so a retrain storm is
  /// visible in the stats instead of silent.
  std::uint64_t retrains_coalesced = 0;
  /// Retrain attempts rejected by the service-wide concurrent-retrain cap
  /// (DataServiceConfig::max_concurrent_retrains) — the stream keeps
  /// serving, the check just does not run.
  std::uint64_t retrains_capped = 0;
  /// Auto-trigger evaluations suppressed because the stream's RetrainPolicy
  /// cooldown had not elapsed since its last retrain.
  std::uint64_t policy_cooldown_skips = 0;
  std::uint64_t snapshot_version = 0;  ///< published model version
  std::uint64_t store_shards = 0;      ///< this stream's collection shards
};

/// Service-wide serving state (a snapshot copy; see DataService::stats):
/// the few gauges no stream owns, plus the per-stream ledgers. Nothing here
/// repeats a per-stream counter — service-wide counts come from totals().
struct ServiceStats {
  // Pending-queue gauges over the shared worker pool: requests admitted
  // but not yet picked up by a worker. `queue_depth` is a point-in-time
  // read; `max_queue_depth` is a high-water mark sampled at each admission,
  // so it never exceeds the configured `max_pending` (when bounded).
  std::uint64_t queue_depth = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t max_pending = 0;  ///< configured bound (0 = unbounded)
  /// submit()/request_retrain calls naming a stream the registry does not
  /// know. Answered with ServeStatus::kUnknownStream and attributed to no
  /// stream.
  std::uint64_t unknown_stream_requests = 0;
  // fairMS model-plane cache counters (all zero without a ModelManager).
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_misses = 0;
  std::uint64_t model_cache_evictions = 0;
  std::uint64_t model_cache_bytes = 0;  ///< resident bytes right now
  /// Per-stream breakdown, sorted by stream name.
  std::vector<StreamStats> streams;

  /// Service-wide counters: every per-stream ledger counter summed over
  /// `streams` (`max_request_seconds` is the maximum). The per-stream
  /// gauges (queue depths, bounds, snapshot version, shards) have no
  /// service-wide sum and stay zero, as does `stream`; the service-wide
  /// gauges are the fields above.
  [[nodiscard]] StreamStats totals() const;
};

}  // namespace fairdms::service
