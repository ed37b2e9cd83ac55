#include "fairms/zoo.hpp"

#include <algorithm>
#include <utility>

#include "fairms/jsd.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace fairdms::fairms {

namespace {

store::Value pdf_to_value(const std::vector<double>& pdf) {
  store::Array arr;
  arr.reserve(pdf.size());
  for (double v : pdf) arr.emplace_back(v);
  return store::Value(std::move(arr));
}

std::vector<double> value_to_pdf(const store::Value& v) {
  std::vector<double> pdf;
  pdf.reserve(v.as_array().size());
  for (const store::Value& e : v.as_array()) pdf.push_back(e.as_double());
  return pdf;
}

/// Scalar field lookup tolerating records written before the field existed
/// (restored store snapshots).
std::uint64_t uint_field_or(const store::Value& doc, const std::string& field,
                            std::uint64_t fallback) {
  const store::Object& obj = doc.as_object();
  const auto it = obj.find(field);
  if (it == obj.end()) return fallback;
  return static_cast<std::uint64_t>(it->second.as_int());
}

ModelRecord record_from_doc(store::DocId id, const store::Value& doc) {
  ModelRecord r;
  r.id = id;
  // Pre-versioning records (restored snapshots) default to revision 0.
  r.revision = uint_field_or(doc, "revision", 0);
  r.architecture = doc.at("architecture").as_string();
  r.dataset_id = doc.at("dataset_id").as_string();
  r.train_pdf = value_to_pdf(doc.at("train_pdf"));
  r.parameters = doc.at("parameters").as_binary();
  return r;
}

/// The projection the rank index is built from: never the blob.
const std::vector<std::string>& index_fields() {
  static const std::vector<std::string> kFields = {
      "revision", "architecture", "train_pdf", "param_bytes"};
  return kFields;
}

/// A stored record's place in the rank index.
struct IndexRow {
  std::string architecture;
  std::vector<double> pdf;  ///< normalized
};

/// The index row of a stored record (an index_fields() projection), or
/// nullopt when the record is not rankable: weightless, or a malformed
/// training PDF (logged).
std::optional<IndexRow> index_row(store::DocId id, const store::Value& doc) {
  // Records written before param_bytes existed (restored store snapshots)
  // all carried non-empty blobs — publish used to reject empty ones — so a
  // missing field means "weights present", not "weightless".
  if (uint_field_or(doc, "param_bytes", 1) == 0) return std::nullopt;
  const std::vector<double> raw = value_to_pdf(doc.at("train_pdf"));
  auto pdf = try_normalized(raw);
  if (!pdf.has_value()) {
    // Possible only in stores restored from before publish/reindex
    // validated mass. Skip the record — one bad row must not crash a
    // serving worker.
    util::log_warn("model_zoo: record ", id, " has a malformed train_pdf (",
                   raw.size(), " bins); excluded from ranking");
    return std::nullopt;
  }
  return IndexRow{doc.at("architecture").as_string(), std::move(*pdf)};
}

void append_row(RankShelf& shelf, store::DocId id,
                std::span<const double> pdf) {
  shelf.ids.push_back(id);
  shelf.pdfs.insert(shelf.pdfs.end(), pdf.begin(), pdf.end());
}

std::size_t row_of(const RankShelf& shelf, store::DocId id) {
  const auto it = std::find(shelf.ids.begin(), shelf.ids.end(), id);
  FAIRDMS_CHECK(it != shelf.ids.end(), "rank index: record ", id,
                " missing from its shelf");
  return static_cast<std::size_t>(it - shelf.ids.begin());
}

/// The total order of rank and recommend. The id tie-break makes equal
/// distances (common with duplicate training sets) order the same way on
/// every call.
bool precedes(const Ranked& a, const Ranked& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.model_id < b.model_id;
}

/// Calls `scan(input, shelf)` with the input PDF, normalized once, and
/// `architecture`'s shelf at its width: the one path by which rank and
/// recommend reach a shelf. A malformed input PDF (client-reachable: an
/// empty query batch yields an all-zero cluster PDF) scans nothing and is
/// logged instead of aborting the serving worker.
template <typename Scan>
void scan_shelf(const ModelZoo& zoo, const std::string& architecture,
                std::span<const double> query_pdf, Scan&& scan) {
  const auto input = try_normalized(query_pdf);
  if (!input.has_value()) {
    util::log_warn("model_manager: rank(", architecture,
                   ") received a malformed input PDF (", query_pdf.size(),
                   " bins); returning no candidates");
    return;
  }
  const auto shelf = zoo.shelf(architecture, input->size());
  if (shelf == nullptr) return;
  scan(std::span<const double>(*input), *shelf);
}

}  // namespace

ModelZoo::ModelZoo(store::DocStore& db, std::size_t cache_bytes)
    : collection_(&db.collection("model_zoo")),
      cache_(std::make_unique<ModelCache>(cache_bytes)) {
  collection_->create_index("architecture");
  // One batched projected read (skipped for a fresh zoo) resumes the
  // revision counter past every stored revision, so (id, revision) cache
  // keys stay unique across restarts, and builds the rank index.
  util::MutexLock lock(mutation_mutex_);
  std::map<ShelfKey, std::shared_ptr<RankShelf>> shelves;
  const std::vector<store::DocId> ids = collection_->all_ids();
  if (!ids.empty()) {
    const auto docs = collection_->find_many(ids, index_fields());
    std::uint64_t max_revision = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!docs[i].has_value()) continue;
      // Pre-versioning records (restored snapshots) count as revision 0.
      max_revision =
          std::max(max_revision, uint_field_or(*docs[i], "revision", 0));
      auto row = index_row(ids[i], *docs[i]);
      if (!row.has_value()) continue;
      ShelfKey key{std::move(row->architecture), row->pdf.size()};
      auto& shelf = shelves[key];
      if (shelf == nullptr) {
        shelf = std::make_shared<RankShelf>();
        shelf->width = key.width;
      }
      append_row(*shelf, ids[i], row->pdf);
      shelf_of_.emplace(ids[i], std::move(key));
    }
    revision_.store(max_revision, std::memory_order_release);
  }
  index_.publish(
      std::make_shared<const RankIndex>(shelves.begin(), shelves.end()));
}

store::DocId ModelZoo::publish(const std::string& architecture,
                               const std::string& dataset_id,
                               const std::vector<double>& train_pdf,
                               std::vector<std::uint8_t> parameters) {
  // A zero-mass / negative / non-finite PDF would make every later
  // rank/recommend against this architecture abort inside the JSD kernel;
  // reject it at the door instead.
  FAIRDMS_CHECK(is_valid_pdf(train_pdf),
                "publish: train_pdf is not a valid distribution (empty, "
                "negative/non-finite entries, or zero mass)");
  // Pre-warming needs a second owner of the blob (cache + store), which
  // costs one copy — skip it when the cache would refuse the record anyway
  // (disabled, or the entry over budget) and keep the old move-only path.
  const std::size_t param_count = parameters.size();
  const bool warm =
      cache_->admits_record(param_count, train_pdf.size(),
                            architecture.size(), dataset_id.size());
  std::shared_ptr<const std::vector<std::uint8_t>> blob;
  store::Object doc;
  doc["architecture"] = store::Value(architecture);
  doc["dataset_id"] = store::Value(dataset_id);
  doc["train_pdf"] = pdf_to_value(train_pdf);
  // Blob size is duplicated as a scalar so the index projection can tell
  // weightless (metadata-first) records apart without touching the blob.
  doc["param_bytes"] =
      store::Value(static_cast<std::int64_t>(parameters.size()));
  if (warm) {
    blob = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(parameters));
    doc["parameters"] = store::Value(store::Binary(*blob));
  } else {
    doc["parameters"] = store::Value(store::Binary(std::move(parameters)));
  }
  // Revision allocation, the store commit and the index swap are one
  // critical section, as in every mutation: two concurrent publishes
  // cannot lose each other's swap.
  util::MutexLock lock(mutation_mutex_);
  const std::uint64_t revision =
      revision_.fetch_add(1, std::memory_order_acq_rel) + 1;
  doc["revision"] = store::Value(static_cast<std::int64_t>(revision));
  const store::DocId id = collection_->insert_one(store::Value(std::move(doc)));

  // Warm the cache with what was just written: the first foundation load
  // of this record costs zero link traffic.
  if (warm) {
    auto record = std::make_shared<CachedModel>();
    record->id = id;
    record->revision = revision;
    record->architecture = architecture;
    record->dataset_id = dataset_id;
    record->train_pdf = train_pdf;
    record->parameters = std::move(blob);
    cache_->put_record(std::move(record));
  }
  // A weightless record is shelved when attach_parameters completes it.
  if (param_count != 0) {
    place_locked(id, architecture, *try_normalized(train_pdf));
  }
  return id;
}

bool ModelZoo::attach_parameters(store::DocId id,
                                 std::vector<std::uint8_t> parameters) {
  if (parameters.empty()) {
    // An empty blob would silently demote the record to weightless —
    // contradicting what "attach" promises. Refuse it.
    util::log_warn("model_zoo: attach_parameters(", id,
                   ") rejected an empty blob");
    return false;
  }
  store::Object fields;
  fields["param_bytes"] =
      store::Value(static_cast<std::int64_t>(parameters.size()));
  fields["parameters"] = store::Value(store::Binary(std::move(parameters)));
  // Revision allocation and the store commit are one critical section:
  // were they separate, two mutators of the same record could commit in
  // the opposite order of their revisions, stranding the stored revision
  // below the other's cache floor (permanently uncacheable record).
  util::MutexLock lock(mutation_mutex_);
  const std::uint64_t revision = allocate_revision_locked(id);
  fields["revision"] = store::Value(static_cast<std::int64_t>(revision));
  // One store lock, one charge: blob, size scalar, and revision stay
  // consistent.
  if (!collection_->update_fields(id, std::move(fields))) return false;
  // A shelved record keeps its row (its PDF did not change); a weightless
  // one becomes rankable now.
  if (!shelf_of_.contains(id)) place_from_store_locked(id);
  return true;
}

std::uint64_t ModelZoo::allocate_revision_locked(store::DocId id) {
  const std::uint64_t revision =
      revision_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Invalidate BEFORE the commit: a reader that observes the post-commit
  // store state must never hit the pre-mutation cache entry (it would
  // serve outdated — possibly empty — weights). Readers inside the window
  // simply miss and refetch. Raising the floor for an absent id is
  // harmless: nothing can be cached for it.
  cache_->invalidate_below(id, revision);
  return revision;
}

void ModelZoo::place_locked(store::DocId id, const std::string& architecture,
                            std::span<const double> pdf) {
  ShelfKey key{architecture, pdf.size()};
  RankIndex next = *index_.load();  // shares every shelf
  const auto placed = shelf_of_.find(id);
  const bool stays = placed != shelf_of_.end() && placed->second == key;
  if (placed != shelf_of_.end() && !stays) {
    // Re-indexed to another width: the row leaves its old shelf.
    auto from = std::make_shared<RankShelf>(*next.at(placed->second));
    const auto row = static_cast<std::ptrdiff_t>(row_of(*from, id));
    const auto width = static_cast<std::ptrdiff_t>(from->width);
    from->ids.erase(from->ids.begin() + row);
    from->pdfs.erase(from->pdfs.begin() + row * width,
                     from->pdfs.begin() + (row + 1) * width);
    if (from->ids.empty()) {
      next.erase(placed->second);
    } else {
      next[placed->second] = std::move(from);
    }
  }
  auto& slot = next[key];
  auto shelf = std::make_shared<RankShelf>();
  shelf->width = key.width;
  if (slot != nullptr) {
    // Reserve first: a plain copy is full, so an append would copy it again
    // into a larger buffer.
    shelf->ids.reserve(slot->ids.size() + 1);
    shelf->pdfs.reserve(slot->pdfs.size() + key.width);
    shelf->ids.assign(slot->ids.begin(), slot->ids.end());
    shelf->pdfs.assign(slot->pdfs.begin(), slot->pdfs.end());
  }
  if (stays) {
    std::copy(pdf.begin(), pdf.end(),
              shelf->pdfs.begin() +
                  static_cast<std::ptrdiff_t>(row_of(*shelf, id) * key.width));
  } else {
    append_row(*shelf, id, pdf);
    shelf_of_.insert_or_assign(id, std::move(key));
  }
  slot = std::move(shelf);
  index_.publish(std::make_shared<const RankIndex>(std::move(next)));
}

void ModelZoo::place_from_store_locked(store::DocId id) {
  const std::vector<store::DocId> ids = {id};
  const auto docs = collection_->find_many(ids, index_fields());
  if (!docs.front().has_value()) return;
  if (auto row = index_row(id, *docs.front())) {
    place_locked(id, row->architecture, row->pdf);
  }
}

std::optional<ModelRecord> ModelZoo::fetch(store::DocId id) const {
  const auto doc = collection_->find_by_id(id);
  if (!doc.has_value()) return std::nullopt;
  return record_from_doc(id, *doc);
}

ModelCache::RecordPtr ModelZoo::fetch_cached(store::DocId id) const {
  if (auto hit = cache_->get_record(id)) return hit;
  const auto doc = collection_->find_by_id(id);
  if (!doc.has_value()) return nullptr;
  ModelRecord fetched = record_from_doc(id, *doc);
  auto record = std::make_shared<CachedModel>();
  record->id = fetched.id;
  record->revision = fetched.revision;
  record->architecture = std::move(fetched.architecture);
  record->dataset_id = std::move(fetched.dataset_id);
  record->train_pdf = std::move(fetched.train_pdf);
  record->parameters = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(fetched.parameters));
  cache_->put_record(record);
  return record;
}

std::vector<ModelRecord> ModelZoo::models_of(
    const std::string& architecture) const {
  // One index lookup + one batched full read: a single round trip (and one
  // shared-lock pass per touched shard) however many models match, where
  // this used to issue one find_by_id per id.
  const std::vector<store::DocId> ids =
      collection_->find_eq("architecture", store::Value(architecture));
  std::vector<ModelRecord> out;
  if (ids.empty()) return out;
  const auto docs = collection_->find_many(ids);
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!docs[i].has_value()) continue;  // removed between lookup and fetch
    out.push_back(record_from_doc(ids[i], *docs[i]));
  }
  return out;
}

bool ModelZoo::reindex(store::DocId id, const std::vector<double>& train_pdf) {
  if (!is_valid_pdf(train_pdf)) {
    // Historically this accepted anything publish would reject, letting a
    // zero-mass PDF poison every later rank. Same gate as publish now.
    util::log_warn("model_zoo: reindex(", id,
                   ") rejected a malformed train_pdf (", train_pdf.size(),
                   " bins)");
    return false;
  }
  store::Object fields;
  fields["train_pdf"] = pdf_to_value(train_pdf);
  // Same commit-order critical section as attach_parameters.
  util::MutexLock lock(mutation_mutex_);
  const std::uint64_t revision = allocate_revision_locked(id);
  fields["revision"] = store::Value(static_cast<std::int64_t>(revision));
  if (!collection_->update_fields(id, std::move(fields))) return false;
  const auto placed = shelf_of_.find(id);
  if (placed != shelf_of_.end()) {
    const std::string architecture = placed->second.architecture;
    place_locked(id, architecture, *try_normalized(train_pdf));
  } else {
    // Weightless records stay unshelved; a record whose stored PDF was
    // malformed becomes rankable.
    place_from_store_locked(id);
  }
  return true;
}

std::shared_ptr<const RankShelf> ModelZoo::shelf(
    const std::string& architecture, std::size_t width) const {
  const auto current = index_.load();
  const auto it = current->find(ShelfKey{architecture, width});
  return it == current->end() ? nullptr : it->second;
}

std::size_t ModelZoo::size() const { return collection_->size(); }

ModelManager::ModelManager(const ModelZoo& zoo, double distance_threshold)
    : zoo_(&zoo), threshold_(distance_threshold) {
  FAIRDMS_CHECK(distance_threshold > 0.0 && distance_threshold <= 1.0,
                "distance threshold must be in (0, 1]");
}

std::vector<Ranked> ModelManager::rank(
    const std::string& architecture,
    std::span<const double> query_pdf) const {
  std::vector<Ranked> out;
  scan_shelf(*zoo_, architecture, query_pdf,
             [&](std::span<const double> input, const RankShelf& shelf) {
               for (std::size_t i = 0; i < shelf.ids.size(); ++i) {
                 out.push_back(
                     {shelf.ids[i], jsd_normalized(input, shelf.row(i))});
               }
             });
  std::sort(out.begin(), out.end(), precedes);
  return out;
}

std::optional<Ranked> ModelManager::recommend(
    const std::string& architecture,
    std::span<const double> query_pdf) const {
  std::optional<Ranked> best;
  scan_shelf(*zoo_, architecture, query_pdf,
             [&](std::span<const double> input, const RankShelf& shelf) {
               // A row can still win only if its JSD is at most `cut`: the
               // threshold, then the best distance found so far. A row
               // whose bound exceeds the cut cannot reach it; a row at the
               // cut can still win on the id tie-break.
               double cut = threshold_;
               for (std::size_t i = 0; i < shelf.ids.size(); ++i) {
                 if (jsd_lower_bound(input, shelf.row(i)) > cut) continue;
                 const Ranked r{shelf.ids[i],
                                jsd_normalized(input, shelf.row(i))};
                 if (r.distance > cut) continue;
                 if (!best.has_value() || precedes(r, *best)) {
                   best = r;
                   cut = r.distance;
                 }
               }
             });
  return best;
}

}  // namespace fairdms::fairms
