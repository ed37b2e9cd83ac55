#include "service/stream_registry.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace fairdms::service {

Stream::Stream(std::string name_in, fairds::FairDS& ds_in,
               StreamConfig config_in, const fairms::ModelManager* manager_in)
    : name(std::move(name_in)),
      ds(&ds_in),
      manager(manager_in),
      config(std::move(config_in)) {
  util::MutexLock lock(stats_mutex);
  counters.stream = name;
  counters.max_pending = config.max_pending;
}

StreamStats Stream::stats() const {
  // Gauges first: snapshot()/store_shards() touch locks ranked below
  // kServiceStats, so they must never be read while holding stats_mutex.
  const std::uint64_t depth = pending.load(std::memory_order_acquire);
  const std::uint64_t high_water =
      max_pending_seen.load(std::memory_order_acquire);
  const auto snap = ds->snapshot();
  const std::uint64_t version = snap != nullptr ? snap->version() : 0;
  const std::uint64_t shards = ds->store_shards();

  util::MutexLock lock(stats_mutex);
  StreamStats out = counters;
  out.queue_depth = depth;
  out.max_queue_depth = high_water;
  out.max_pending = config.max_pending;
  out.snapshot_version = version;
  out.store_shards = shards;
  return out;
}

StreamStats ServiceStats::totals() const {
  StreamStats out;
  for (const StreamStats& s : streams) {
    out.label_requests += s.label_requests;
    out.lookup_requests += s.lookup_requests;
    out.recommend_requests += s.recommend_requests;
    out.label_answered += s.label_answered;
    out.lookup_answered += s.lookup_answered;
    out.recommend_answered += s.recommend_answered;
    out.label_shed += s.label_shed;
    out.lookup_shed += s.lookup_shed;
    out.recommend_shed += s.recommend_shed;
    out.samples_labeled += s.samples_labeled;
    out.labels_reused += s.labels_reused;
    out.labels_computed += s.labels_computed;
    out.busy_seconds += s.busy_seconds;
    out.max_request_seconds =
        std::max(out.max_request_seconds, s.max_request_seconds);
    out.retrain_checks += s.retrain_checks;
    out.retrains += s.retrains;
    out.retrains_coalesced += s.retrains_coalesced;
    out.retrains_capped += s.retrains_capped;
    out.policy_cooldown_skips += s.policy_cooldown_skips;
  }
  return out;
}

bool StreamRegistry::add(const std::string& name, fairds::FairDS& ds,
                         StreamConfig config,
                         const fairms::ModelManager* manager) {
  FAIRDMS_CHECK(!name.empty(),
                "StreamRegistry: empty stream name (reserved as the "
                "default-stream alias)");
  FAIRDMS_CHECK(config.store_shards == 0 ||
                    config.store_shards == ds.store_shards(),
                "stream '", name, "': configured store_shards ",
                config.store_shards, " != sample collection's ",
                ds.store_shards());
  FAIRDMS_CHECK(config.storage_engine.empty() ||
                    config.storage_engine == ds.storage_engine(),
                "stream '", name, "': configured storage_engine '",
                config.storage_engine, "' != sample collection's '",
                ds.storage_engine(), "'");
  util::MutexLock lock(mutation_mutex_);
  const auto current = map_.load();
  if (current->contains(name)) return false;
  auto next = std::make_shared<Map>(*current);
  (*next)[name] =
      std::make_shared<Stream>(name, ds, std::move(config), manager);
  map_.publish(std::move(next));
  return true;
}

std::shared_ptr<Stream> StreamRegistry::find(const std::string& name) const {
  const auto map = map_.load();
  const auto it = map->find(name.empty() ? kDefaultStreamName : name);
  return it != map->end() ? it->second : nullptr;
}

std::vector<std::shared_ptr<Stream>> StreamRegistry::all() const {
  const auto map = map_.load();
  std::vector<std::shared_ptr<Stream>> out;
  out.reserve(map->size());
  for (const auto& [_, stream] : *map) out.push_back(stream);
  return out;  // std::map iteration is already name-sorted
}

std::size_t StreamRegistry::size() const {
  return map_.load()->size();
}

}  // namespace fairdms::service
