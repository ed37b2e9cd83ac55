// fairDS — the FAIR data service (paper §II-A, Fig. 3).
//
// System plane: train the self-supervised embedding model on historical
// images, cluster the embedding space with k-means (K chosen by the elbow
// method when not fixed), and keep the labeled history in the document store
// with each sample's embedding and cluster id. Monitor clustering certainty
// (fuzzy k-means) and retrain embedding + clustering + re-ingest when
// certainty drops below threshold.
//
// User plane: every query runs on a fairds::Snapshot (snapshot.hpp), the
// immutable model version the system plane last published: the cluster-PDF
// of unlabeled input (`distribution`), a PDF-matched labeled dataset from
// history (`lookup`), or per-sample label reuse with a distance threshold
// and a caller-provided conventional labeler for the misses
// (`lookup_or_label`, the Fig. 9 workload).
//
// Concurrency model (two planes, one publication seam): the system plane
// (train_system / ingest / maybe_retrain) mutates master state under an
// internal mutex and, on completion, publishes a new Snapshot. snapshot()
// hands out the current one; queries on it run without locks, from any
// number of threads, and never observe a torn view of an in-flight
// retrain. Hold one snapshot across calls that must agree on one model
// version (e.g. embed + distribution of the same batch).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "embed/embedder.hpp"
#include "fairds/reuse_index.hpp"
#include "fairds/snapshot.hpp"
#include "nn/trainer.hpp"
#include "store/docstore.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/published.hpp"

namespace fairdms::fairds {

using tensor::Tensor;

struct FairDSConfig {
  std::string embedding_algorithm = "byol";
  std::size_t embedding_dim = 16;
  std::size_t image_size = 15;        ///< square image side
  std::size_t n_clusters = 0;         ///< 0 => elbow method
  std::size_t elbow_k_min = 4;
  std::size_t elbow_k_max = 18;
  embed::EmbedTrainConfig embed_train;
  double certainty_threshold = 0.8;   ///< Fig. 16's 80% retrain trigger
  /// Fuzzy-k-means fuzziness (m). Lower = crisper memberships. 1.35 makes
  /// "assigned with >= 50% confidence" a meaningful in-distribution signal
  /// for K in the 8-15 range; the classic m = 2 is far too soft there.
  double fuzziness = 1.35;
  std::uint64_t seed = 42;
  std::string collection = "fairds_samples";
  /// Shard count for the sample collection (created on construction);
  /// 0 => the DocStore's default. More shards let concurrent ingest and
  /// store reads proceed in parallel (detector-rate streaming); 1 keeps
  /// the single-lock store. Ignored when the collection already exists.
  std::size_t store_shards = 0;
  /// Storage engine for the sample collection; nullopt => the DocStore's
  /// configured engine (with the store root directory + collection name).
  /// When set, `storage->directory` is used verbatim as the collection's
  /// data directory. Ignored when the collection already exists.
  std::optional<store::StorageEngineConfig> storage;
};

/// Outcome of the per-sample reuse path (Fig. 9).
struct ReuseStats {
  std::size_t reused = 0;    ///< labels retrieved from history
  std::size_t computed = 0;  ///< labels computed by the fallback labeler
};

class FairDS {
 public:
  FairDS(FairDSConfig config, store::DocStore& db);

  // --- system plane (serialized by an internal mutex) ----------------------

  /// Trains the embedding model and the clustering model on historical
  /// images [N, 1, S, S], then publishes the first snapshot. Must run
  /// before ingest and before any query.
  void train_system(const Tensor& historical_xs);

  /// Embeds, clusters, and stores labeled samples (xs [N,1,S,S], ys [N,L])
  /// under `dataset_id`, then publishes a refreshed snapshot. Requires a
  /// trained system.
  void ingest(const Tensor& xs, const Tensor& ys,
              const std::string& dataset_id);

  /// The uncertainty-triggered update: if certainty(new_xs) falls below the
  /// configured threshold, retrain embedding + clustering on all stored
  /// images plus new_xs, re-assign stored samples, publish the new
  /// snapshot, and return true. Concurrent queries keep running against
  /// the previous snapshot until the swap.
  bool maybe_retrain(const Tensor& new_xs);
  /// Same check against an explicit threshold instead of the configured
  /// one — the hook a per-stream RetrainPolicy (service layer) uses to
  /// give each tenant its own trigger sensitivity over a shared FairDS
  /// implementation. A threshold above 1.0 retrains unconditionally.
  bool maybe_retrain(const Tensor& new_xs, double certainty_threshold);

  // --- user plane ------------------------------------------------------------

  /// The current published model snapshot; nullptr before train_system.
  /// Queries running against a snapshot are unaffected by later
  /// system-plane publishes.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::size_t stored_count() const;
  /// Shard count of the backing sample collection.
  [[nodiscard]] std::size_t store_shards() const;
  /// Storage engine of the backing sample collection ("mem" | "log").
  [[nodiscard]] const char* storage_engine() const;
  [[nodiscard]] std::size_t retrain_count() const {
    return retrains_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const FairDSConfig& config() const { return config_; }

 private:
  void train_system_impl(const Tensor& xs, std::uint64_t seed)
      REQUIRES(system_mutex_);
  /// Rebuilds the reuse index from the stored `cluster`/`embedding` fields
  /// (used when models change but stored assignments are authoritative).
  void rebuild_index_from_store() REQUIRES(system_mutex_);
  /// Copies the master state into an immutable Snapshot and publishes it.
  /// Caller must hold system_mutex_ (compiler-checked).
  void publish_snapshot_locked() REQUIRES(system_mutex_);
  /// Certainty against the *master* state (inside a system-plane op, where
  /// the master may already be ahead of the published snapshot).
  [[nodiscard]] double certainty_locked(const Tensor& xs) const
      REQUIRES(system_mutex_);
  /// Images of `ids`, row i from ids[i], via one batched projected read.
  [[nodiscard]] Tensor images_for(const std::vector<store::DocId>& ids) const;

  FairDSConfig config_;
  store::DocStore* db_;
  store::Collection* samples_;

  /// Master state, written only under system_mutex_. The embedder is shared
  /// with published snapshots and never refit in place: retraining replaces
  /// the pointer with a freshly trained embedder.
  util::Mutex system_mutex_{util::LockRank::kSystemPlane};
  std::shared_ptr<embed::Embedder> embedder_ GUARDED_BY(system_mutex_);
  std::optional<cluster::KMeansModel> kmeans_ GUARDED_BY(system_mutex_);
  ReuseIndex reuse_index_ GUARDED_BY(system_mutex_);
  /// Label width of ingested samples; 0 until known (set on first ingest,
  /// re-derived from the store when a FairDS is built over existing data).
  std::size_t label_width_ GUARDED_BY(system_mutex_) = 0;
  std::uint64_t version_ GUARDED_BY(system_mutex_) = 0;

  /// The published snapshot (null until train_system).
  util::Published<Snapshot> snapshot_;
  std::atomic<std::size_t> retrains_{0};
};

}  // namespace fairdms::fairds
