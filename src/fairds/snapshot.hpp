// Immutable fairDS model snapshot — the unit of publication between the
// system plane and the user plane (paper §II-A; serving framing of the
// FAIR-models follow-up, arXiv:2207.00611).
//
// A Snapshot captures everything a query needs — embedder, k-means model,
// reuse index, label width, config — at one consistent model version. It
// is the one query API: every user-plane operation (embed / distribution /
// certainty / lookup / lookup_or_label) is a pure function of a snapshot
// plus per-call inputs (an explicit seed where sampling is involved), so
// any number of threads can query one snapshot concurrently without locks
// while the system plane trains the next version off to the side and
// publishes it (FairDS::snapshot() returns the current one; nullptr before
// the first train_system).
//
// Thread-safety contract:
//  * Every method on a published Snapshot is safe to call concurrently.
//    The embedder is only ever run in eval mode, which mutates no layer
//    state; the k-means model and reuse index are owned copies that are
//    never written after construction.
//  * The backing document store collection is internally synchronized
//    (shared_mutex), so concurrent batched reads against it are safe even
//    while the system plane re-assigns stored samples — snapshots only read
//    the immutable `x`/`y` fields, never the mutable `cluster`/`embedding`
//    assignment fields.
//  * A snapshot can outlive the FairDS state that produced it: readers
//    holding the shared_ptr keep querying the old model version while (or
//    after) a retrain publishes a new one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/kmeans.hpp"
#include "embed/embedder.hpp"
#include "fairds/reuse_index.hpp"
#include "nn/trainer.hpp"
#include "store/docstore.hpp"

namespace fairdms::fairds {

using tensor::Tensor;

struct FairDSConfig;
struct ReuseStats;

class Snapshot {
 public:
  /// Built by FairDS under its system-plane lock; `embedder` must already be
  /// trained and is shared (never refit — retraining builds a new embedder),
  /// `index` is an immutable copy of the reuse index at publish time.
  Snapshot(const FairDSConfig& config,
           std::shared_ptr<embed::Embedder> embedder,
           cluster::KMeansModel kmeans,
           std::shared_ptr<const ReuseIndex> index, std::size_t label_width,
           store::Collection* samples, std::uint64_t version);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // --- user plane (lock-free, concurrent) ----------------------------------

  /// Embeds images [N,1,S,S] -> [N, dim].
  [[nodiscard]] Tensor embed(const Tensor& xs) const;

  /// Cluster-PDF of a dataset under this snapshot's clustering.
  [[nodiscard]] std::vector<double> distribution(const Tensor& xs) const;

  /// Fuzzy-k-means certainty of this snapshot's clustering on a dataset.
  [[nodiscard]] double certainty(const Tensor& xs) const;

  /// PDF-matched labeled dataset of |xs| samples drawn from the snapshot's
  /// reuse index; `seed` drives all sampling (pure given seed + snapshot).
  [[nodiscard]] nn::Batchset lookup(const Tensor& xs,
                                    std::uint64_t seed) const;

  /// Per-sample reuse: for each input, the nearest stored sample within its
  /// cluster is reused when its embedding distance is below `threshold`;
  /// otherwise `fallback_labeler` computes the label ([M,1,S,S] -> [M,L]).
  /// Nearest-neighbor search runs on this snapshot's reuse index; winning
  /// documents are fetched in one batched, field-projected store read. On
  /// an empty index every sample routes to the fallback labeler and the
  /// label width is inferred from its output (cold start).
  nn::Batchset lookup_or_label(
      const Tensor& xs, double threshold,
      const std::function<Tensor(const Tensor&)>& fallback_labeler,
      ReuseStats* stats = nullptr) const;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const cluster::KMeansModel& clusters() const {
    return kmeans_;
  }
  [[nodiscard]] const ReuseIndex& reuse_index() const { return *index_; }
  [[nodiscard]] std::size_t n_clusters() const { return kmeans_.k(); }
  /// Monotonic model version: bumped on every system-plane publish.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Label width of stored samples; derived from the store on first use
  /// when unknown at publish time (snapshot over a pre-existing history).
  [[nodiscard]] std::size_t label_width() const;
  /// Rows in this snapshot's reuse index (not the live store count).
  [[nodiscard]] std::size_t indexed_count() const { return index_->size(); }

  [[nodiscard]] std::size_t embedding_dim() const;
  [[nodiscard]] std::size_t image_size() const;

 private:
  [[nodiscard]] nn::Batchset fetch_samples(
      const std::vector<store::DocId>& ids) const;

  std::shared_ptr<embed::Embedder> embedder_;
  cluster::KMeansModel kmeans_;
  std::shared_ptr<const ReuseIndex> index_;
  store::Collection* samples_;
  std::size_t image_size_;
  std::size_t embedding_dim_;
  double fuzziness_;
  std::uint64_t version_;
  /// 0 until known; lazily derived from any stored sample. Racing readers
  /// compute the same value, so a plain atomic store publishes it safely.
  mutable std::atomic<std::size_t> label_width_;
};

}  // namespace fairdms::fairds
