#include "store/docstore.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::store {

namespace {

/// Batched operations fan out per-shard on the global thread pool only
/// above this many work items; below it, serial dispatch beats the queue
/// round trip.
constexpr std::size_t kShardFanoutMinItems = 512;

/// Wire bytes of an update's field set: 8 + name + encoded value per field.
/// Computed by the collection (not the engine) so the charge is identical
/// whether or not the document exists — the values travel either way.
std::size_t fields_value_bytes(const Object& fields) {
  std::size_t value_bytes = 0;
  for (const auto& [field, value] : fields) {
    value_bytes += 8 + field.size() + value.encoded_size();
  }
  return value_bytes;
}

void index_doc(SecondaryIndexes& indexes, DocId id, const Value& doc) {
  for (auto& [field, index] : indexes) {
    if (doc.contains(field)) index[doc.at(field)].push_back(id);
  }
}

void unindex_doc(SecondaryIndexes& indexes, DocId id, const Value& doc) {
  for (auto& [field, index] : indexes) {
    if (!doc.contains(field)) continue;
    auto it = index.find(doc.at(field));
    if (it == index.end()) continue;
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) index.erase(it);
  }
}

}  // namespace

// --- per-shard core ---------------------------------------------------------
//
// Clang's thread-safety analysis checks a lambda as a separate function
// that holds no lock, so callbacks handed to the engine reach the guarded
// indexes through a reference bound here, under the caller's lock.

void Collection::Shard::insert(DocId id, Value doc, std::size_t bytes) {
  index_doc(indexes, id, doc);
  engine->insert(id, std::move(doc), bytes);
}

std::optional<Value> Collection::Shard::fetch(
    DocId id, std::span<const std::string> fields,
    std::size_t& charged_bytes) const {
  std::optional<Value> out;
  engine->read(id, [&](const Value& doc, std::size_t bytes) {
    if (fields.empty()) {
      charged_bytes += bytes;
      out = doc;
      return;
    }
    Object projected;
    const Object& src = doc.as_object();
    for (const std::string& field : fields) {
      auto fit = src.find(field);
      if (fit == src.end()) continue;
      charged_bytes += 8 + field.size() + fit->second.encoded_size();
      projected.emplace(field, fit->second);
    }
    out = Value(std::move(projected));
  });
  return out;
}

bool Collection::Shard::update(DocId id, Object fields) {
  SecondaryIndexes& shard_indexes = indexes;
  return engine->rewrite(id, [&](Value& doc) {
    unindex_doc(shard_indexes, id, doc);
    Object& obj = doc.as_object();
    for (auto& [field, value] : fields) {
      obj[field] = std::move(value);
    }
    index_doc(shard_indexes, id, doc);
  });
}

bool Collection::Shard::erase(DocId id) {
  SecondaryIndexes& shard_indexes = indexes;
  return engine->read(id,
                      [&](const Value& doc, std::size_t /*bytes*/) {
                        unindex_doc(shard_indexes, id, doc);
                      }) &&
         engine->erase(id);
}

void Collection::Shard::create_index(const std::string& field) {
  auto [slot, created] = indexes.try_emplace(field);
  if (!created) return;
  auto& index = slot->second;
  engine->for_each([&](DocId id, const Value& doc) {
    if (doc.contains(field)) index[doc.at(field)].push_back(id);
  });
}

void Collection::Shard::find_eq(const std::string& field, const Value& value,
                                std::vector<DocId>& out) const {
  auto idx = indexes.find(field);
  if (idx != indexes.end()) {
    auto it = idx->second.find(value);
    if (it != idx->second.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return;
  }
  engine->for_each([&](DocId id, const Value& doc) {
    if (doc.contains(field) && doc.at(field) == value) out.push_back(id);
  });
}

// --- Collection -------------------------------------------------------------

Collection::Collection(std::string name, const RemoteLink* link,
                       std::size_t shards, const StorageEngineConfig& engine)
    : name_(std::move(name)), link_(link), engine_kind_(engine.kind) {
  FAIRDMS_CHECK(shards >= 1, "collection '", name_,
                "': shard count must be >= 1, got ", shards);
  auto engines = make_shard_engines(engine, name_, shards);
  shards_.reserve(shards);
  DocId max_recovered = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& shard = *shards_.back();
    util::MutexLock lock(shard.mutex);
    shard.engine = std::move(engines[s]);
    // A durable engine may come up populated (segment replay); resume id
    // allocation past everything it recovered.
    max_recovered = std::max(max_recovered, shard.engine->max_id());
  }
  if (max_recovered != 0) {
    next_id_.store(max_recovered + 1, std::memory_order_relaxed);
  }
  if ((shards & (shards - 1)) == 0) shard_mask_ = shards - 1;
}

std::size_t Collection::doc_bytes(const Value& doc) {
  return doc.encoded_size();
}

void Collection::for_each_shard(
    std::size_t items, const std::function<void(std::size_t)>& body) const {
  const std::size_t n = shards_.size();
  if (n > 1 && items >= kShardFanoutMinItems) {
    util::ThreadPool::global().parallel_for(
        n, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) body(s);
        });
    return;
  }
  for (std::size_t s = 0; s < n; ++s) body(s);
}

DocId Collection::insert_one(Value doc) {
  FAIRDMS_CHECK(doc.is_object(), "insert_one: document must be an object");
  const DocId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  doc.as_object()["_id"] = Value(static_cast<std::int64_t>(id));
  const std::size_t bytes = doc_bytes(doc);
  Shard& shard = shard_of(id);
  {
    util::MutexLock lock(shard.mutex);
    shard.insert(id, std::move(doc), bytes);
  }
  charge(bytes + 64);  // request envelope
  return id;
}

std::vector<DocId> Collection::insert_many(std::vector<Value> docs) {
  const std::size_t n = docs.size();
  // One contiguous id block, so batch ids are deterministic regardless of
  // which shard commits first.
  const DocId first = next_id_.fetch_add(n, std::memory_order_relaxed);
  std::vector<DocId> ids;
  ids.reserve(n);
  std::vector<std::size_t> sizes(n);
  std::vector<std::vector<std::size_t>> per_shard(shards_.size());
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    FAIRDMS_CHECK(docs[i].is_object(),
                  "insert_many: document must be object");
    const DocId id = first + i;
    docs[i].as_object()["_id"] = Value(static_cast<std::int64_t>(id));
    sizes[i] = doc_bytes(docs[i]);
    total_bytes += sizes[i];
    per_shard[shard_index(id)].push_back(i);
    ids.push_back(id);
  }
  for_each_shard(n, [&](std::size_t s) {
    if (per_shard[s].empty()) return;
    Shard& shard = *shards_[s];
    util::MutexLock lock(shard.mutex);
    for (const std::size_t i : per_shard[s]) {
      shard.insert(ids[i], std::move(docs[i]), sizes[i]);
    }
  });
  charge(total_bytes + 64);  // one batched round trip
  return ids;
}

std::optional<Value> Collection::find_by_id(DocId id) const {
  std::optional<Value> out;
  std::size_t bytes = 64;
  Shard& shard = shard_of(id);
  {
    util::ReaderLock lock(shard.mutex);
    out = shard.fetch(id, {}, bytes);
  }
  charge(bytes);
  return out;
}

std::vector<std::optional<Value>> Collection::find_many(
    std::span<const DocId> ids, std::span<const std::string> fields) const {
  std::vector<std::optional<Value>> out(ids.size());
  std::vector<std::vector<std::size_t>> per_shard(shards_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    per_shard[shard_index(ids[i])].push_back(i);
  }
  std::vector<std::size_t> shard_bytes(shards_.size(), 0);
  for_each_shard(ids.size(), [&](std::size_t s) {
    if (per_shard[s].empty()) return;
    Shard& shard = *shards_[s];
    std::size_t bytes = 0;
    util::ReaderLock lock(shard.mutex);
    for (const std::size_t i : per_shard[s]) {
      out[i] = shard.fetch(ids[i], fields, bytes);
    }
    shard_bytes[s] = bytes;
  });
  std::size_t bytes = 64;
  for (const std::size_t b : shard_bytes) bytes += b;
  charge(bytes);  // one batched round trip for the whole id list
  return out;
}

bool Collection::update_field(DocId id, const std::string& field,
                              Value value) {
  Object fields;
  fields.emplace(field, std::move(value));
  return update_fields(id, std::move(fields));
}

bool Collection::update_fields(DocId id, Object fields) {
  const std::size_t value_bytes = fields_value_bytes(fields);
  bool found = false;
  Shard& shard = shard_of(id);
  {
    util::MutexLock lock(shard.mutex);
    found = shard.update(id, std::move(fields));
  }
  charge(64 + value_bytes);
  return found;
}

std::size_t Collection::update_many(
    std::vector<std::pair<DocId, Object>> updates) {
  std::vector<std::vector<std::size_t>> per_shard(shards_.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    // Grouping preserves list order within a shard, so repeated updates to
    // one id apply in submission order.
    per_shard[shard_index(updates[i].first)].push_back(i);
  }
  std::vector<std::size_t> shard_updated(shards_.size(), 0);
  std::vector<std::size_t> shard_bytes(shards_.size(), 0);
  for_each_shard(updates.size(), [&](std::size_t s) {
    if (per_shard[s].empty()) return;
    Shard& shard = *shards_[s];
    util::MutexLock lock(shard.mutex);
    for (const std::size_t i : per_shard[s]) {
      shard_bytes[s] += fields_value_bytes(updates[i].second);
      if (shard.update(updates[i].first, std::move(updates[i].second))) {
        ++shard_updated[s];
      }
    }
  });
  std::size_t updated = 0;
  std::size_t value_bytes = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    updated += shard_updated[s];
    value_bytes += shard_bytes[s];
  }
  charge(64 + value_bytes);  // one batched round trip
  return updated;
}

bool Collection::remove_one(DocId id) {
  bool found = false;
  Shard& shard = shard_of(id);
  {
    util::MutexLock lock(shard.mutex);
    found = shard.erase(id);
  }
  charge(64);
  return found;
}

void Collection::create_index(const std::string& field) {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mutex);
    shard.create_index(field);
  }
}

std::vector<DocId> Collection::find_eq(const std::string& field,
                                       const Value& value) const {
  std::vector<DocId> out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    util::ReaderLock lock(shard.mutex);
    shard.find_eq(field, value, out);
  }
  std::sort(out.begin(), out.end());
  charge(64 + out.size() * 8);
  return out;
}

void Collection::scan(
    const std::function<void(DocId, const Value&)>& fn) const {
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    util::ReaderLock lock(shard.mutex);
    shard.engine->for_each(fn);
  }
}

std::vector<DocId> Collection::all_ids() const {
  std::vector<std::vector<DocId>> per_shard(shards_.size());
  // size() is a cheap pre-pass (one uncontended shared lock per shard) and
  // sizes the fan-out decision plus the merge reservation.
  const std::size_t total = size();
  for_each_shard(total, [&](std::size_t s) {
    const Shard& shard = *shards_[s];
    util::ReaderLock lock(shard.mutex);
    shard.engine->append_ids(per_shard[s]);
  });
  std::vector<DocId> out;
  out.reserve(total);
  for (auto& ids : per_shard) {
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  charge(64 + out.size() * 8);
  return out;
}

std::size_t Collection::size() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    util::ReaderLock lock(shard.mutex);
    total += shard.engine->size();
  }
  return total;
}

std::size_t Collection::approx_bytes() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    util::ReaderLock lock(shard.mutex);
    total += shard.engine->payload_bytes();
  }
  return total;
}

void Collection::compact() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    util::MutexLock lock(shard.mutex);
    shard.engine->compact();
  }
}

std::vector<std::string> Collection::index_fields() const {
  // create_index installs the field on every shard before returning, so
  // shard 0 is authoritative.
  const Shard& shard = *shards_[0];
  util::ReaderLock lock(shard.mutex);
  std::vector<std::string> fields;
  fields.reserve(shard.indexes.size());
  for (const auto& [field, _] : shard.indexes) fields.push_back(field);
  return fields;
}

DocId Collection::next_id() const {
  return next_id_.load(std::memory_order_relaxed);
}

void Collection::restore(DocId next_id,
                         std::vector<std::pair<DocId, Value>> documents) {
  FAIRDMS_CHECK(size() == 0, "restore into non-empty collection '", name_,
                "'");
  next_id_.store(next_id, std::memory_order_relaxed);
  // A log engine recovers the id floor from the records it replays. When
  // the snapshot's highest issued id was removed before the save, a put
  // and a tombstone for it carry the floor (replay counts the tombstone,
  // compaction keeps it).
  const DocId top = next_id - 1;
  if (top > 0 && std::none_of(documents.begin(), documents.end(),
                              [&](const auto& entry) {
                                return entry.first == top;
                              })) {
    Object placeholder;
    placeholder["_id"] = Value(static_cast<std::int64_t>(top));
    Value doc(std::move(placeholder));
    const std::size_t bytes = doc_bytes(doc);
    Shard& shard = shard_of(top);
    util::MutexLock lock(shard.mutex);
    shard.insert(top, std::move(doc), bytes);
    shard.erase(top);
  }
  for (auto& [id, doc] : documents) {
    FAIRDMS_CHECK(doc.is_object(), "restore: document must be an object");
    FAIRDMS_CHECK(id < next_id, "restore: id ", id, " >= next_id ", next_id);
    const std::size_t bytes = doc_bytes(doc);
    Shard& shard = shard_of(id);
    util::MutexLock lock(shard.mutex);
    shard.insert(id, std::move(doc), bytes);
  }
}

Collection& DocStore::collection(const std::string& name, std::size_t shards,
                                 const StorageEngineConfig* engine) {
  const std::size_t want = shards == 0 ? default_shards_ : shards;
  StorageEngineConfig want_engine =
      engine != nullptr ? *engine : engine_config_;
  if (engine == nullptr && want_engine.kind == EngineKind::kLog) {
    // The store-level directory is a root shared by every collection.
    want_engine.directory += "/" + name;
  }
  {
    util::ReaderLock lock(mutex_);
    auto it = collections_.find(name);
    if (it != collections_.end()) {
      if (shards != 0 && it->second->shard_count() != want) {
        util::log_info("collection '", name, "' already exists with ",
                       it->second->shard_count(), " shard(s); requested ",
                       want, " ignored (live resharding unsupported)");
      }
      if (engine != nullptr && it->second->engine_kind() != engine->kind) {
        util::log_info("collection '", name, "' already exists with the '",
                       it->second->engine_name(), "' engine; requested '",
                       to_string(engine->kind),
                       "' ignored (live engine swaps unsupported)");
      }
      return *it->second;
    }
  }
  util::MutexLock lock(mutex_);
  auto& slot = collections_[name];
  if (!slot) {
    slot = std::make_unique<Collection>(name, is_remote() ? &link_ : nullptr,
                                        want, want_engine);
  }
  return *slot;
}

bool DocStore::has_collection(const std::string& name) const {
  util::ReaderLock lock(mutex_);
  return collections_.count(name) > 0;
}

std::vector<std::string> DocStore::collection_names() const {
  util::ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

}  // namespace fairdms::store
