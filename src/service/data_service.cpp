#include "service/data_service.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace fairdms::service {

namespace {

std::size_t worker_count_for(std::size_t configured) {
  if (configured != 0) return configured;
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::thread::hardware_concurrency()));
}

/// Lock-free monotonic max for the queue-depth high-water marks.
void cas_max(std::atomic<std::uint64_t>& mark, std::uint64_t value) {
  std::uint64_t seen = mark.load(std::memory_order_relaxed);
  while (seen < value &&
         !mark.compare_exchange_weak(seen, value, std::memory_order_acq_rel)) {
  }
}

/// Per-stream half of the two-level admission: reserve a pending slot (CAS
/// against the stream bound, so the submit path never locks for it).
/// False => per-stream shed.
bool reserve_pending(Stream& stream) {
  const std::uint64_t bound = stream.config.max_pending;
  std::uint64_t seen = stream.pending.load(std::memory_order_relaxed);
  for (;;) {
    if (bound != 0 && seen >= bound) return false;
    if (stream.pending.compare_exchange_weak(seen, seen + 1,
                                             std::memory_order_acq_rel)) {
      cas_max(stream.max_pending_seen, seen + 1);
      return true;
    }
  }
}

}  // namespace

struct DataService::Ledger {
  std::uint64_t StreamStats::*requests;
  std::uint64_t StreamStats::*answered;
  std::uint64_t StreamStats::*shed;
};

DataService::DataService(DataServiceConfig config)
    : config_(std::move(config)),
      workers_(worker_count_for(config_.workers), config_.max_pending) {}

DataService::~DataService() { wait_idle(); }

bool DataService::add_stream(const std::string& name, fairds::FairDS& ds,
                             StreamConfig config,
                             const fairms::ModelManager* manager) {
  return registry_.add(name, ds, std::move(config), manager);
}

bool DataService::has_stream(const std::string& name) const {
  return registry_.find(name) != nullptr;
}

std::vector<std::string> DataService::stream_names() const {
  std::vector<std::string> out;
  for (const auto& stream : registry_.all()) out.push_back(stream->name);
  return out;
}

std::shared_ptr<const fairds::Snapshot> DataService::snapshot(
    const std::string& stream) const {
  const auto s = registry_.find(stream);
  return s != nullptr ? s->ds->snapshot() : nullptr;
}

bool DataService::has_model_manager(const std::string& stream) const {
  const auto s = registry_.find(stream);
  return s != nullptr && s->manager != nullptr;
}

template <typename Response, typename Request, typename Run>
void DataService::submit_to_stream(Request request, Done<Response> done,
                                   Ledger ledger, Run run) {
  // Rejections answer on this thread: no copy, no snapshot, no worker.
  const auto reject = [&done](ServeStatus status) {
    Response response;
    response.status = status;
    done(std::move(response));
  };
  auto stream = registry_.find(request.stream);
  if (stream == nullptr) {
    unknown_stream_requests_.fetch_add(1, std::memory_order_relaxed);
    return reject(ServeStatus::kUnknownStream);
  }
  if constexpr (std::is_same_v<Request, RecommendRequest>) {
    FAIRDMS_CHECK(stream->manager != nullptr, "RecommendRequest on stream '",
                  stream->name, "' without a ModelManager");
  }
  const auto shed = [&stream, &ledger, &reject] {
    {
      util::MutexLock lock(stream->stats_mutex);
      ++(stream->counters.*ledger.shed);
    }
    reject(ServeStatus::kShedOverload);
  };
  {
    util::MutexLock lock(stream->stats_mutex);
    ++(stream->counters.*ledger.requests);
  }
  if (!reserve_pending(*stream)) return shed();
  // The task holds a copy of `done`: a full pool destroys the task, and the
  // shed answer below still needs the callback.
  auto task = [this, stream, req = std::move(request), done, ledger, run] {
    stream->pending.fetch_sub(1, std::memory_order_acq_rel);
    util::WallTimer timer;
    const auto snap = stream->ds->snapshot();
    FAIRDMS_CHECK(snap != nullptr, "DataService: stream '", stream->name,
                  "' not trained");
    Response response = run(*stream, *snap, req);
    response.snapshot_version = snap->version();
    response.seconds = timer.seconds();
    {
      util::MutexLock lock(stream->stats_mutex);
      StreamStats& counters = stream->counters;
      ++(counters.*ledger.answered);
      if constexpr (std::is_same_v<Request, LabelRequest>) {
        counters.samples_labeled += req.xs.dim(0);
        counters.labels_reused += response.reuse.reused;
        counters.labels_computed += response.reuse.computed;
      }
      counters.busy_seconds += response.seconds;
      counters.max_request_seconds =
          std::max(counters.max_request_seconds, response.seconds);
    }
    if constexpr (std::is_same_v<Request, LabelRequest>) {
      // Serving-side Fig. 16 policy: the data just labeled doubles as the
      // drift probe, gated by this stream's RetrainPolicy.
      maybe_auto_retrain(stream, req.xs);
    }
    done(std::move(response));
  };
  if (!workers_.try_submit(std::move(task))) {
    stream->pending.fetch_sub(1, std::memory_order_acq_rel);
    return shed();
  }
  // Service-wide half of the admission ledger: the shared pool's high-water
  // mark (the per-stream one was taken by reserve_pending).
  cas_max(max_queue_depth_, workers_.queue_depth());
}

void DataService::submit(LabelRequest request, Done<LabelResponse> done) {
  FAIRDMS_CHECK(request.fallback_labeler != nullptr,
                "LabelRequest without a fallback labeler");
  submit_to_stream<LabelResponse>(
      std::move(request), std::move(done),
      {&StreamStats::label_requests, &StreamStats::label_answered,
       &StreamStats::label_shed},
      [](const Stream&, const fairds::Snapshot& snap,
         const LabelRequest& req) {
        LabelResponse response;
        response.batch = snap.lookup_or_label(
            req.xs, req.threshold, req.fallback_labeler, &response.reuse);
        return response;
      });
}

void DataService::submit(LookupRequest request, Done<LookupResponse> done) {
  submit_to_stream<LookupResponse>(
      std::move(request), std::move(done),
      {&StreamStats::lookup_requests, &StreamStats::lookup_answered,
       &StreamStats::lookup_shed},
      [](const Stream&, const fairds::Snapshot& snap,
         const LookupRequest& req) {
        LookupResponse response;
        response.batch = snap.lookup(req.xs, req.seed);
        return response;
      });
}

void DataService::submit(RecommendRequest request,
                         Done<RecommendResponse> done) {
  submit_to_stream<RecommendResponse>(
      std::move(request), std::move(done),
      {&StreamStats::recommend_requests, &StreamStats::recommend_answered,
       &StreamStats::recommend_shed},
      [](const Stream& stream, const fairds::Snapshot& snap,
         const RecommendRequest& req) {
        RecommendResponse response;
        response.pdf = snap.distribution(req.xs);
        response.pick = stream.manager->recommend(req.architecture,
                                                  response.pdf);
        return response;
      });
}

void DataService::maybe_auto_retrain(const std::shared_ptr<Stream>& stream,
                                     const Tensor& xs) {
  const RetrainPolicy& policy = stream->config.retrain;
  if (!policy.auto_trigger) return;
  {
    util::MutexLock lock(stream->stats_mutex);
    stream->samples_since_trigger += xs.dim(0);
    if (stream->samples_since_trigger < policy.min_new_samples) return;
    if (policy.cooldown_seconds > 0.0 && stream->ever_retrained) {
      const double since =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        stream->last_retrain_done)
              .count();
      if (since < policy.cooldown_seconds) {
        ++stream->counters.policy_cooldown_skips;
        return;
      }
    }
  }
  if (request_retrain_on(stream, xs)) {
    // The new-sample budget is spent only when a check actually enqueued;
    // coalesced/capped attempts keep accumulating toward the next one.
    util::MutexLock lock(stream->stats_mutex);
    stream->samples_since_trigger = 0;
  }
}

bool DataService::request_retrain(const std::string& stream_name,
                                  const Tensor& xs) {
  auto stream = registry_.find(stream_name);
  if (stream == nullptr) {
    unknown_stream_requests_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return request_retrain_on(stream, xs);
}

bool DataService::request_retrain_on(const std::shared_ptr<Stream>& stream,
                                     const Tensor& xs) {
  bool expected = false;
  if (!stream->system_busy.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    // One check in flight answers the question; coalesce. Counted so a
    // retrain storm shows up in the stats.
    util::MutexLock lock(stream->stats_mutex);
    ++stream->counters.retrains_coalesced;
    return false;
  }
  if (config_.max_concurrent_retrains != 0) {
    std::size_t seen = retrains_in_flight_.load(std::memory_order_acquire);
    for (;;) {
      if (seen >= config_.max_concurrent_retrains) {
        stream->system_busy.store(false, std::memory_order_release);
        util::MutexLock lock(stream->stats_mutex);
        ++stream->counters.retrains_capped;
        return false;
      }
      if (retrains_in_flight_.compare_exchange_weak(
              seen, seen + 1, std::memory_order_acq_rel)) {
        break;
      }
    }
  }
  // Copy only after winning the coalescing race and the global cap:
  // dropped requests (the steady state during a storm) cost no allocation.
  // Captured as a raw pointer on purpose: a worker destroys its task
  // object *after* signaling idle, so an owning capture could drop the
  // last Stream reference on the stream's own executor thread — ~Stream
  // would then self-join that thread. The raw pointer stays valid because
  // the registry never removes streams and ~Stream joins this executor
  // before anything the task touches is destroyed.
  Stream* const s = stream.get();
  const double threshold = s->config.retrain.certainty_threshold;
  s->retrain_executor.submit([this, s, xs, threshold] {
    const bool retrained = threshold > 0.0
                               ? s->ds->maybe_retrain(xs, threshold)
                               : s->ds->maybe_retrain(xs);
    {
      util::MutexLock lock(s->stats_mutex);
      ++s->counters.retrain_checks;
      if (retrained) {
        ++s->counters.retrains;
        s->ever_retrained = true;
        s->last_retrain_done = std::chrono::steady_clock::now();
      }
    }
    if (config_.max_concurrent_retrains != 0) {
      retrains_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    s->system_busy.store(false, std::memory_order_release);
  });
  return true;
}

bool DataService::retrain_in_flight() const {
  for (const auto& stream : registry_.all()) {
    if (stream->system_busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool DataService::retrain_in_flight(const std::string& stream_name) const {
  const auto stream = registry_.find(stream_name);
  return stream != nullptr &&
         stream->system_busy.load(std::memory_order_acquire);
}

void DataService::wait_idle() {
  // User-plane tasks may enqueue system-plane checks, never the reverse,
  // so draining workers first then every stream's executor reaches a true
  // fixed point.
  workers_.wait_idle();
  for (const auto& stream : registry_.all()) {
    stream->retrain_executor.wait_idle();
  }
}

StreamStats DataService::stream_stats(const std::string& stream_name) const {
  const auto stream = registry_.find(stream_name);
  return stream != nullptr ? stream->stats() : StreamStats{};
}

ServiceStats DataService::stats() const {
  ServiceStats out;
  // Pool gauge before any stats mutex: lock order must stay acyclic.
  out.queue_depth = workers_.queue_depth();
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_acquire);
  out.max_pending = config_.max_pending;
  out.unknown_stream_requests =
      unknown_stream_requests_.load(std::memory_order_relaxed);

  // Per-stream snapshots taken one at a time (never two stats mutexes at
  // once).
  std::unordered_set<const fairms::ModelZoo*> zoos;
  const auto streams = registry_.all();
  out.streams.reserve(streams.size());
  for (const auto& stream : streams) {
    out.streams.push_back(stream->stats());
    if (stream->manager != nullptr) zoos.insert(&stream->manager->zoo());
  }
  // Model-plane cache gauges, deduplicated by zoo (the cache's owner) so
  // tenants sharing one zoo — even through different managers — are not
  // double-counted.
  for (const fairms::ModelZoo* zoo : zoos) {
    const auto cache = zoo->cache().stats();
    out.model_cache_hits += cache.hits;
    out.model_cache_misses += cache.misses;
    out.model_cache_evictions += cache.evictions;
    out.model_cache_bytes += cache.resident_bytes;
  }
  return out;
}

}  // namespace fairdms::service
