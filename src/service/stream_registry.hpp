// StreamRegistry — per-stream serving state for the multi-tenant
// DataService (ROADMAP open item 4: the paper's three instruments as
// concurrent tenants of one serving facility).
//
// One `Stream` is one tenant: its own fairds::FairDS (and therefore its
// own store::Collection, sharding/storage engine composing unchanged, and
// its own snapshot publish chain), its own optional ModelManager slice,
// its own RetrainPolicy, its own single-thread retrain executor, and its
// own admission/stats ledgers. The registry maps names to streams with
// the same idiom the snapshot plane uses for models: a published immutable
// map (util::Published), copied on mutation — so the user-plane route from
// a request's stream id to its snapshot costs one pointer copy, while
// registration (rare, operator-plane) serializes on a mutex.
//
// Lifetime: the registry borrows the FairDS and ModelManager — the caller
// keeps them alive for the service's lifetime. Streams are never removed (an experiment that
// ends simply stops sending), so a shared_ptr<Stream> captured by an
// in-flight task stays valid without further ceremony.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/dtos.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/published.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::service {

/// The fig16 uncertainty trigger, promoted from a bench script to a
/// per-stream production policy: after every answered label request the
/// service evaluates this gate and, when it passes, enqueues a certainty
/// check (and conditional retrain) on that stream's retrain executor.
struct RetrainPolicy {
  /// Master switch; false leaves retraining to explicit request_retrain.
  bool auto_trigger = false;
  /// Certainty threshold the check retrains below. 0 => use the stream's
  /// FairDSConfig::certainty_threshold; > 1 retrains unconditionally.
  double certainty_threshold = 0.0;
  /// Minimum seconds between triggered retrains; suppressed evaluations
  /// are counted (StreamStats::policy_cooldown_skips), not queued.
  double cooldown_seconds = 0.0;
  /// Labeled samples that must accumulate since the last enqueued check
  /// before the next one fires (0 => every label request qualifies).
  std::size_t min_new_samples = 0;
};

/// Per-stream registration knobs.
struct StreamConfig {
  RetrainPolicy retrain;
  /// Per-stream admission bound: requests admitted to this stream but not
  /// yet executing. 0 => only the service-wide bound applies. A full
  /// stream sheds its own requests without consuming service-wide queue
  /// slots other tenants could use.
  std::size_t max_pending = 0;
  /// Declared shard count of the stream's sample collection; 0 => don't
  /// care. Checked at registration against the FairDS's actual collection,
  /// failing loudly when a deployment assumed ingest parallelism the store
  /// was not built with.
  std::size_t store_shards = 0;
  /// Declared storage engine of the collection ("mem" | "log"); empty =>
  /// don't care. Checked like store_shards.
  std::string storage_engine = "";
};

/// One tenant's serving state. User-plane fields are atomics or guarded by
/// the per-stream stats mutex; system-plane work serializes on the
/// stream's own 1-thread executor so one tenant's retrain can never queue
/// behind (or stall) another's.
struct Stream {
  Stream(std::string name_in, fairds::FairDS& ds_in, StreamConfig config_in,
         const fairms::ModelManager* manager_in);

  const std::string name;
  fairds::FairDS* const ds;
  const fairms::ModelManager* const manager;
  const StreamConfig config;

  /// Admitted-but-not-executing requests (the per-stream queue gauge) and
  /// its high-water mark. Maintained with CAS so admission never takes a
  /// lock on the submit path.
  std::atomic<std::uint64_t> pending{0};
  std::atomic<std::uint64_t> max_pending_seen{0};
  /// At most one certainty check in flight per stream; losers coalesce.
  std::atomic<bool> system_busy{false};

  /// kServiceStats rank — never hold two streams' stats mutexes at once
  /// (same-rank nesting aborts under the Debug rank checker by design).
  mutable util::Mutex stats_mutex{util::LockRank::kServiceStats};
  /// The mutable ledgers; gauges (queue_depth, snapshot_version, ...) are
  /// filled in by stats() at read time.
  StreamStats counters GUARDED_BY(stats_mutex);
  /// RetrainPolicy state.
  std::uint64_t samples_since_trigger GUARDED_BY(stats_mutex) = 0;
  bool ever_retrained GUARDED_BY(stats_mutex) = false;
  std::chrono::steady_clock::time_point last_retrain_done
      GUARDED_BY(stats_mutex){};

  /// This stream's serialized system plane (certainty checks + retrains).
  util::ThreadPool retrain_executor{1};

  /// Counters + gauges snapshot. Reads the FairDS gauges *before* taking
  /// the stats mutex (store locks rank below kServiceStats).
  [[nodiscard]] StreamStats stats() const EXCLUDES(stats_mutex);
};

/// Name -> Stream map with a published lookup and copy-on-write insertion.
class StreamRegistry {
 public:
  StreamRegistry() = default;
  ~StreamRegistry() = default;

  StreamRegistry(const StreamRegistry&) = delete;
  StreamRegistry& operator=(const StreamRegistry&) = delete;

  /// Registers a stream. False (and no registration) when the name is
  /// already taken; aborts on an empty name (programmer error — empty is
  /// the wire's "default stream" alias, never a registry key).
  bool add(const std::string& name, fairds::FairDS& ds, StreamConfig config,
           const fairms::ModelManager* manager);

  /// Route from a request's stream id to its stream (one pointer copy).
  /// Empty `name` is the alias for kDefaultStreamName. nullptr when
  /// unknown.
  [[nodiscard]] std::shared_ptr<Stream> find(const std::string& name) const;

  /// All streams, sorted by name (the order stats vectors report in).
  [[nodiscard]] std::vector<std::shared_ptr<Stream>> all() const;

  [[nodiscard]] std::size_t size() const;

 private:
  using Map = std::map<std::string, std::shared_ptr<Stream>>;

  /// Published map; readers load, mutators copy-swap under mutation_mutex_.
  util::Published<Map> map_{std::make_shared<const Map>()};
  util::Mutex mutation_mutex_{util::LockRank::kStreamRegistry};
};

}  // namespace fairdms::service
