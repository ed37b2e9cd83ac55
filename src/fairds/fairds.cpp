#include "fairds/fairds.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/fuzzy.hpp"
#include "fairds/field_codec.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace fairdms::fairds {

FairDS::FairDS(FairDSConfig config, store::DocStore& db)
    : config_(std::move(config)),
      db_(&db),
      samples_(&db.collection(
          config_.collection, config_.store_shards,
          config_.storage.has_value() ? &*config_.storage : nullptr)) {
  samples_->create_index("dataset_id");
}

void FairDS::train_system_impl(const Tensor& xs, std::uint64_t seed) {
  FAIRDMS_CHECK(xs.rank() == 4 && xs.dim(2) == config_.image_size &&
                    xs.dim(3) == config_.image_size,
                "FairDS: expected [N,1,", config_.image_size, ",",
                config_.image_size, "], got ", xs.shape_str());
  // A fresh embedder every time: published snapshots share the previous one
  // and must keep serving it unchanged while this trains.
  std::shared_ptr<embed::Embedder> next(
      embed::make_embedder(config_.embedding_algorithm, config_.image_size,
                           config_.embedding_dim, seed));
  next->fit(xs, config_.embed_train);
  const Tensor embeddings = next->embed(xs);
  embedder_ = std::move(next);

  std::size_t k = config_.n_clusters;
  if (k == 0) {
    const auto elbow = cluster::elbow_k(
        embeddings, config_.elbow_k_min,
        std::min(config_.elbow_k_max, embeddings.dim(0)), seed);
    k = elbow.best_k;
    util::log_info("fairDS elbow selected K=", k);
  }
  cluster::KMeansConfig kc;
  kc.k = k;
  kc.seed = seed;
  kmeans_ = cluster::kmeans_fit(embeddings, kc);
}

void FairDS::publish_snapshot_locked() {
  // The copy shares the master index's per-cluster blocks; marking them
  // shared first makes later master mutations clone instead of writing in
  // place, so the published snapshot's readers never observe a change.
  reuse_index_.mark_shared();
  auto snap = std::make_shared<const Snapshot>(
      config_, embedder_, *kmeans_,
      std::make_shared<const ReuseIndex>(reuse_index_), label_width_,
      samples_, ++version_);
  snapshot_.publish(std::move(snap));
}

std::shared_ptr<const Snapshot> FairDS::snapshot() const {
  return snapshot_.load();
}

void FairDS::train_system(const Tensor& historical_xs) {
  util::MutexLock lock(system_mutex_);
  train_system_impl(historical_xs, config_.seed);
  // Samples the collection already holds (a FairDS over an existing or
  // reopened store) are indexed under the freshly trained plane.
  const std::vector<store::DocId> ids = samples_->all_ids();
  index_stored(ids, images_for(ids));
  publish_snapshot_locked();
}

void FairDS::index_stored(const std::vector<store::DocId>& ids,
                          const Tensor& images) {
  reuse_index_.reset(config_.embedding_dim);
  if (ids.empty()) return;
  const Tensor embeddings = embedder_->embed(images);
  const auto assignments = kmeans_->assign_batch(embeddings);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reuse_index_.add(assignments[i], ids[i],
                     {embeddings.data() + i * config_.embedding_dim,
                      config_.embedding_dim});
  }
  if (label_width_ == 0) {
    const auto doc = samples_->find_by_id(ids.front());
    FAIRDMS_CHECK(doc.has_value(), "FairDS: stored sample vanished");
    label_width_ = decode_floats(doc->at("y").as_binary()).size();
  }
}

void FairDS::ingest(const Tensor& xs, const Tensor& ys,
                    const std::string& dataset_id) {
  util::MutexLock lock(system_mutex_);
  FAIRDMS_CHECK(embedder_ != nullptr, "FairDS::ingest before train_system");
  FAIRDMS_CHECK(xs.rank() == 4 && ys.rank() >= 1 && xs.dim(0) == ys.dim(0),
                "FairDS::ingest: xs/ys mismatch");
  const std::size_t n = xs.dim(0);
  const std::size_t pixels =
      config_.image_size * config_.image_size;
  // Labels of any rank are stored flattened per sample (image-valued labels
  // like CookieNetAE's density maps included).
  const std::size_t label_w = ys.numel() / n;
  const Tensor embeddings = embedder_->embed(xs);
  const auto assignments = kmeans_->assign_batch(embeddings);

  std::vector<store::Value> docs;
  docs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    store::Object doc;
    doc["dataset_id"] = store::Value(dataset_id);
    doc["x"] = store::Value(encode_floats({xs.data() + i * pixels, pixels}));
    doc["y"] =
        store::Value(encode_floats({ys.data() + i * label_w, label_w}));
    docs.emplace_back(std::move(doc));
  }
  const std::vector<store::DocId> ids = samples_->insert_many(std::move(docs));

  // Add the new rows to the master reuse index incrementally — ingest
  // already has the embeddings and assignments in hand; published snapshots
  // keep their own immutable copies.
  for (std::size_t i = 0; i < n; ++i) {
    reuse_index_.add(assignments[i], ids[i],
                     {embeddings.data() + i * config_.embedding_dim,
                      config_.embedding_dim});
  }
  if (label_width_ == 0) label_width_ = label_w;
  publish_snapshot_locked();
}

double FairDS::certainty_locked(const Tensor& xs) const {
  FAIRDMS_CHECK(embedder_ != nullptr,
                "FairDS::certainty before train_system");
  const Tensor embeddings = embedder_->embed(xs);
  cluster::FuzzyConfig fuzzy;
  fuzzy.fuzziness = config_.fuzziness;
  return cluster::dataset_certainty(*kmeans_, embeddings, fuzzy);
}

bool FairDS::maybe_retrain(const Tensor& new_xs) {
  return maybe_retrain(new_xs, config_.certainty_threshold);
}

bool FairDS::maybe_retrain(const Tensor& new_xs, double certainty_threshold) {
  util::MutexLock lock(system_mutex_);
  FAIRDMS_CHECK(embedder_ != nullptr,
                "FairDS::maybe_retrain before train_system");
  const double c = certainty_locked(new_xs);
  if (c >= certainty_threshold) return false;
  util::log_info("fairDS retrain triggered (certainty ",
                 static_cast<int>(c * 100.0), "% < ",
                 static_cast<int>(certainty_threshold * 100.0),
                 "%)");

  // Retrain the system plane on history + the new data, then rebuild the
  // reuse index from the same stored images under the refreshed plane. One
  // batched projected read pulls every stored image; no sample record is
  // written. Concurrent queries keep running on the previously published
  // snapshot for the duration.
  const std::vector<store::DocId> ids = samples_->all_ids();
  const Tensor history = images_for(ids);
  Tensor combined;
  if (history.empty()) {
    combined = new_xs;
  } else {
    const std::size_t pixels = config_.image_size * config_.image_size;
    const std::size_t total = history.dim(0) + new_xs.dim(0);
    combined = Tensor({total, 1, config_.image_size, config_.image_size});
    std::copy_n(history.data(), history.numel(), combined.data());
    std::copy_n(new_xs.data(), new_xs.numel(),
                combined.data() + history.dim(0) * pixels);
  }
  const std::size_t retrain_no =
      retrains_.fetch_add(1, std::memory_order_relaxed) + 1;
  train_system_impl(combined, config_.seed + retrain_no);
  index_stored(ids, history);
  publish_snapshot_locked();
  return true;
}

std::size_t FairDS::stored_count() const { return samples_->size(); }

std::size_t FairDS::store_shards() const { return samples_->shard_count(); }

const char* FairDS::storage_engine() const { return samples_->engine_name(); }

Tensor FairDS::images_for(const std::vector<store::DocId>& ids) const {
  if (ids.empty()) return Tensor();
  static const std::vector<std::string> kXField = {"x"};
  const std::size_t pixels = config_.image_size * config_.image_size;
  const auto docs = samples_->find_many(ids, kXField);
  Tensor out({ids.size(), 1, config_.image_size, config_.image_size});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    FAIRDMS_CHECK(docs[i].has_value(), "FairDS: stored sample vanished");
    const auto x = decode_floats(docs[i]->at("x").as_binary());
    FAIRDMS_CHECK(x.size() == pixels, "stored sample has wrong pixel count");
    std::copy(x.begin(), x.end(), out.data() + i * pixels);
  }
  return out;
}

}  // namespace fairdms::fairds
