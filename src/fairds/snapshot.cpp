#include "fairds/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/fuzzy.hpp"
#include "fairds/fairds.hpp"
#include "fairds/field_codec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fairdms::fairds {

Snapshot::Snapshot(const FairDSConfig& config,
                   std::shared_ptr<embed::Embedder> embedder,
                   cluster::KMeansModel kmeans,
                   std::shared_ptr<const ReuseIndex> index,
                   std::size_t label_width, store::Collection* samples,
                   std::uint64_t version)
    : embedder_(std::move(embedder)),
      kmeans_(std::move(kmeans)),
      index_(std::move(index)),
      samples_(samples),
      image_size_(config.image_size),
      embedding_dim_(config.embedding_dim),
      fuzziness_(config.fuzziness),
      version_(version),
      label_width_(label_width) {
  FAIRDMS_CHECK(embedder_ != nullptr && index_ != nullptr &&
                    samples_ != nullptr,
                "Snapshot: incomplete state");
}

std::size_t Snapshot::embedding_dim() const { return embedding_dim_; }

std::size_t Snapshot::image_size() const { return image_size_; }

Tensor Snapshot::embed(const Tensor& xs) const {
  // Eval-mode inference only: the shipped embedders mutate no layer state
  // outside kTrain, so concurrent embeds on the shared embedder are safe.
  return embedder_->embed(xs);
}

std::vector<double> Snapshot::distribution(const Tensor& xs) const {
  return kmeans_.cluster_pdf(embed(xs));
}

double Snapshot::certainty(const Tensor& xs) const {
  cluster::FuzzyConfig fuzzy;
  fuzzy.fuzziness = fuzziness_;
  return cluster::dataset_certainty(kmeans_, embed(xs), fuzzy);
}

std::size_t Snapshot::label_width() const {
  std::size_t width = label_width_.load(std::memory_order_relaxed);
  if (width != 0) return width;
  // Unknown width (snapshot built over a pre-existing collection): derive
  // it from any stored sample once and cache it.
  samples_->scan([&](store::DocId, const store::Value& doc) {
    if (width == 0) {
      width = decode_floats(doc.at("y").as_binary()).size();
    }
  });
  FAIRDMS_CHECK(width > 0, "FairDS: no stored samples to infer label width");
  label_width_.store(width, std::memory_order_relaxed);
  return width;
}

nn::Batchset Snapshot::fetch_samples(
    const std::vector<store::DocId>& ids) const {
  FAIRDMS_CHECK(!ids.empty(), "Snapshot::fetch_samples: empty id list");
  const std::size_t pixels = image_size_ * image_size_;
  const auto docs = samples_->find_many(ids, kXYFields);
  nn::Batchset out;
  bool first = true;
  std::size_t label_w = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    FAIRDMS_CHECK(docs[i].has_value(), "FairDS: stored sample vanished");
    const auto x = decode_floats(docs[i]->at("x").as_binary());
    const auto y = decode_floats(docs[i]->at("y").as_binary());
    if (first) {
      label_w = y.size();
      out.xs = Tensor({ids.size(), 1, image_size_, image_size_});
      out.ys = Tensor({ids.size(), label_w});
      first = false;
    }
    FAIRDMS_CHECK(x.size() == pixels && y.size() == label_w,
                  "FairDS: inconsistent stored sample shapes");
    std::copy(x.begin(), x.end(), out.xs.data() + i * pixels);
    std::copy(y.begin(), y.end(), out.ys.data() + i * label_w);
  }
  return out;
}

nn::Batchset Snapshot::lookup(const Tensor& xs, std::uint64_t seed) const {
  FAIRDMS_CHECK(index_->size() > 0, "Snapshot::lookup on empty store");
  const std::size_t n = xs.dim(0);
  const std::vector<double> pdf = distribution(xs);
  util::Rng rng(seed);

  // Integer per-cluster counts that sum to n (largest remainders).
  const std::size_t k = pdf.size();
  std::vector<std::size_t> want(k, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const double exact = pdf[c] * static_cast<double>(n);
    want[c] = static_cast<std::size_t>(exact);
    assigned += want[c];
    remainders.emplace_back(exact - std::floor(exact), c);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < n && i < remainders.size(); ++i) {
    ++want[remainders[i].second];
    ++assigned;
  }

  // Draw randomly from each cluster's indexed members (with replacement
  // when a cluster is under-populated); clusters absent from the index
  // spill into a global pool of every indexed id (ascending, so draws are
  // a pure function of snapshot + seed).
  std::vector<store::DocId> chosen;
  chosen.reserve(n);
  std::vector<store::DocId> global_pool;
  for (std::size_t c = 0; c < k; ++c) {
    if (want[c] == 0) continue;
    const std::span<const store::DocId> members = index_->cluster_ids(c);
    if (members.empty()) {
      if (global_pool.empty()) {
        for (std::size_t cc = 0; cc < index_->cluster_count(); ++cc) {
          const auto ids = index_->cluster_ids(cc);
          global_pool.insert(global_pool.end(), ids.begin(), ids.end());
        }
        std::sort(global_pool.begin(), global_pool.end());
      }
      for (std::size_t i = 0; i < want[c]; ++i) {
        chosen.push_back(global_pool[rng.uniform_index(global_pool.size())]);
      }
      continue;
    }
    for (std::size_t i = 0; i < want[c]; ++i) {
      chosen.push_back(members[rng.uniform_index(members.size())]);
    }
  }
  return fetch_samples(chosen);
}

nn::Batchset Snapshot::lookup_or_label(
    const Tensor& xs, double threshold,
    const std::function<Tensor(const Tensor&)>& fallback_labeler,
    ReuseStats* stats) const {
  const std::size_t n = xs.dim(0);
  const std::size_t pixels = image_size_ * image_size_;
  nn::Batchset out;
  out.xs = xs;

  // Cold start: with no indexed history every sample routes to the fallback
  // labeler and the label width comes from its output.
  if (index_->size() == 0) {
    const Tensor computed = fallback_labeler(xs);
    FAIRDMS_CHECK(computed.rank() == 2 && computed.dim(0) == n,
                  "fallback labeler returned wrong shape");
    out.ys = computed;
    if (stats != nullptr) stats->computed += n;
    return out;
  }

  const Tensor embeddings = embed(xs);
  const auto assignments = kmeans_.assign_batch(embeddings);

  // Two-level search: the k-means assignment picks the cluster, the reuse
  // index finds the nearest stored member — dense floats only, parallel
  // over query rows, no store traffic.
  const auto neighbors = index_->nearest_batch(
      {embeddings.data(), embeddings.numel()}, assignments);

  out.ys = Tensor({n, label_width()});
  const std::size_t label_w = out.ys.dim(1);

  std::vector<std::size_t> reuse_rows;
  std::vector<store::DocId> reuse_ids;
  std::vector<std::size_t> fallback_rows;
  for (std::size_t i = 0; i < n; ++i) {
    const ReuseIndex::Neighbor& nb = neighbors[i];
    if (nb.found() && std::sqrt(nb.dist2) < threshold) {
      reuse_rows.push_back(i);
      reuse_ids.push_back(nb.id);
    } else {
      fallback_rows.push_back(i);
    }
  }

  if (!reuse_rows.empty()) {
    // Paper §III-E: the reused entry is the *historical pair* {p, l(p)} —
    // a consistent image/label pair from the store — not the new image
    // with a borrowed label. One batched projected read fetches every
    // *unique* winning pair (queries often share a nearest neighbor in
    // small clusters; no point fetching and charging the same document
    // once per query).
    std::vector<store::DocId> unique_ids;
    std::unordered_map<store::DocId, std::size_t> doc_slot;
    std::vector<std::size_t> row_slot(reuse_rows.size());
    for (std::size_t j = 0; j < reuse_rows.size(); ++j) {
      const auto [it, inserted] =
          doc_slot.try_emplace(reuse_ids[j], unique_ids.size());
      if (inserted) unique_ids.push_back(reuse_ids[j]);
      row_slot[j] = it->second;
    }
    const auto docs = samples_->find_many(unique_ids, kXYFields);
    std::size_t reused = 0;
    for (std::size_t j = 0; j < reuse_rows.size(); ++j) {
      const std::size_t i = reuse_rows[j];
      const auto& doc = docs[row_slot[j]];
      if (!doc.has_value()) {
        // The winning document was removed from the store after the index
        // row was built; serve the query via the fallback labeler instead
        // of failing the whole batch.
        fallback_rows.push_back(i);
        continue;
      }
      const auto x = decode_floats(doc->at("x").as_binary());
      const auto y = decode_floats(doc->at("y").as_binary());
      FAIRDMS_CHECK(y.size() == label_w, "stored label width mismatch");
      FAIRDMS_CHECK(x.size() == pixels, "stored image size mismatch");
      std::copy(x.begin(), x.end(), out.xs.data() + i * pixels);
      std::copy(y.begin(), y.end(), out.ys.data() + i * label_w);
      ++reused;
    }
    if (stats != nullptr) stats->reused += reused;
    // Vanished-winner rows were appended out of order.
    std::sort(fallback_rows.begin(), fallback_rows.end());
  }

  if (!fallback_rows.empty()) {
    Tensor pending({fallback_rows.size(), 1, image_size_, image_size_});
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(xs.data() + fallback_rows[j] * pixels, pixels,
                  pending.data() + j * pixels);
    }
    const Tensor computed = fallback_labeler(pending);
    FAIRDMS_CHECK(computed.rank() == 2 &&
                      computed.dim(0) == fallback_rows.size() &&
                      computed.dim(1) == label_w,
                  "fallback labeler returned wrong shape");
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(computed.data() + j * label_w, label_w,
                  out.ys.data() + fallback_rows[j] * label_w);
    }
    if (stats != nullptr) stats->computed += fallback_rows.size();
  }
  return out;
}

}  // namespace fairdms::fairds
