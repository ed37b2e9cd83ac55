// In-memory embedding index for the fairDS per-sample reuse path (the
// second level of the paper's two-level hierarchical search, §II-A).
//
// The document store holds each sample's image and label only; a sample's
// embedding and cluster id are a pure function of its image and the current
// system plane, and live here. Per cluster the index keeps a structure-of-
// arrays block — a contiguous row-major float block of embeddings plus a
// parallel DocId array — so nearest-neighbor search touches only dense
// floats and returns DocIds; the store is then read once, batched, for just
// the winning documents.
//
// Populated incrementally at FairDS::ingest, rebuilt wholesale from the
// stored images whenever train_system or maybe_retrain sets a new
// embedding/clustering plane. Searches use squared-distance partial pruning
// (abandon a candidate as soon as its partial sum exceeds the current best)
// and parallelize over query rows on util::ThreadPool. Read-only operations are safe to call concurrently;
// mutation requires external exclusion (FairDS's system plane owns that).
//
// Copies are copy-on-write per cluster: mark_shared() + copy shares the
// per-cluster blocks, and a later mutation on the source detaches (clones)
// only the touched clusters. Snapshot publication therefore costs
// O(clusters) shared-pointer copies per publish — not O(stored rows) — no
// matter how often the system plane publishes during streaming ingest.
// Sharing is tracked explicitly (a per-cluster flag set by mark_shared),
// not by refcount inspection, so writers never touch a block any copy can
// observe and no cross-thread synchronization is needed beyond whatever
// ordering hands the copy to its readers.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "store/docstore.hpp"

namespace fairdms::fairds {

class ReuseIndex {
 public:
  /// Nearest stored row for one query. `id == 0` means the cluster had no
  /// members (DocStore ids start at 1, so 0 is free as a sentinel).
  struct Neighbor {
    store::DocId id = 0;
    double dist2 = std::numeric_limits<double>::infinity();
    [[nodiscard]] bool found() const { return id != 0; }
  };

  ReuseIndex() = default;
  explicit ReuseIndex(std::size_t dim) : dim_(dim) {}

  /// Drops every row and fixes the embedding width for subsequent adds.
  void reset(std::size_t dim);

  /// Appends one (document, embedding) row to `cluster`, growing the
  /// cluster list on demand. `embedding.size()` must equal dim().
  void add(std::size_t cluster, store::DocId id,
           std::span<const float> embedding);

  /// Declares every current block shared with an imminent copy: call right
  /// before copy-constructing this index for a published snapshot. Later
  /// mutations clone the touched clusters instead of writing in place, so
  /// the copy's readers never observe a change.
  void mark_shared();

  /// Nearest row of `cluster` to `query` by squared Euclidean distance.
  /// Ties keep the earliest-added row. Out-of-range clusters are empty.
  [[nodiscard]] Neighbor nearest(std::size_t cluster,
                                 std::span<const float> query) const;

  /// nearest() for every row of `queries` ([N * dim], row-major) against
  /// its per-row cluster, parallelized over the global thread pool.
  [[nodiscard]] std::vector<Neighbor> nearest_batch(
      std::span<const float> queries,
      std::span<const std::size_t> clusters) const;

  [[nodiscard]] std::size_t dim() const { return dim_; }
  /// Total rows across all clusters.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }
  [[nodiscard]] std::size_t cluster_size(std::size_t cluster) const;
  [[nodiscard]] std::span<const store::DocId> cluster_ids(
      std::size_t cluster) const;

 private:
  struct ClusterRows {
    std::vector<float> rows;       ///< [n * dim_], row-major
    std::vector<store::DocId> ids; ///< parallel to rows
  };
  struct Slot {
    std::shared_ptr<ClusterRows> rows;  ///< null => empty cluster
    /// Set by mark_shared(); a flagged block may be held by a copy and is
    /// cloned (never written in place) on the next mutation.
    bool shared = false;
  };

  /// The cluster's block, writable by this index (cloned first when
  /// flagged shared). Mutators call this before writing.
  ClusterRows& detach(std::size_t cluster);

  std::size_t dim_ = 0;
  std::vector<Slot> clusters_;
};

}  // namespace fairdms::fairds
