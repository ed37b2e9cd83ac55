#include "store/storage_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "store/log_engine.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"

namespace fairdms::store {

namespace {

// engine.meta (u32 magic | u32 version | u64 shard count): pins the shard
// count of a log-engine collection directory.
constexpr std::uint32_t kMetaMagic = 0x464D4554;  // "FMET"
constexpr std::uint32_t kMetaVersion = 1;

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMem:
      return "mem";
    case EngineKind::kLog:
      return "log";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  if (name == "mem") return EngineKind::kMem;
  if (name == "log") return EngineKind::kLog;
  return std::nullopt;
}

// --- SecondaryIndexes -------------------------------------------------------

std::vector<std::string> SecondaryIndexes::fields() const {
  std::vector<std::string> out;
  out.reserve(indexes_.size());
  for (const auto& [field, _] : indexes_) out.push_back(field);
  std::sort(out.begin(), out.end());
  return out;
}

void SecondaryIndexes::insert(DocId id, const Value& doc) {
  for (auto& [field, index] : indexes_) {
    if (doc.contains(field)) index[doc.at(field)].push_back(id);
  }
}

void SecondaryIndexes::insert_into(const std::string& field, DocId id,
                                   const Value& doc) {
  if (doc.contains(field)) indexes_[field][doc.at(field)].push_back(id);
}

void SecondaryIndexes::remove(DocId id, const Value& doc) {
  for (auto& [field, index] : indexes_) {
    if (!doc.contains(field)) continue;
    auto it = index.find(doc.at(field));
    if (it == index.end()) continue;
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) index.erase(it);
  }
}

bool SecondaryIndexes::find_eq(const std::string& field, const Value& value,
                               std::vector<DocId>& out) const {
  auto idx = indexes_.find(field);
  if (idx == indexes_.end()) return false;
  auto it = idx->second.find(value);
  if (it != idx->second.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return true;
}

bool SecondaryIndexes::find_range(const std::string& field, const Value& lo,
                                  const Value& hi,
                                  std::vector<DocId>& out) const {
  auto idx = indexes_.find(field);
  if (idx == indexes_.end()) return false;
  for (auto it = idx->second.lower_bound(lo);
       it != idx->second.end() && it->first < hi; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return true;
}

Value project_fields(const Value& doc, std::span<const std::string> fields,
                     std::size_t& charged_bytes) {
  Object projected;
  const Object& src = doc.as_object();
  for (const std::string& field : fields) {
    auto fit = src.find(field);
    if (fit == src.end()) continue;
    charged_bytes += 8 + field.size() + fit->second.encoded_size();
    projected.emplace(field, fit->second);
  }
  return Value(std::move(projected));
}

// --- MemEngine --------------------------------------------------------------

void MemEngine::insert(DocId id, Value doc, std::size_t bytes) {
  payload_bytes_ += bytes;
  indexes_.insert(id, doc);
  docs_.emplace(id, StoredDoc{std::move(doc), bytes});
}

std::optional<Value> MemEngine::fetch(DocId id,
                                      std::span<const std::string> fields,
                                      std::size_t& charged_bytes) const {
  auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  if (fields.empty()) {
    charged_bytes += it->second.bytes;
    return it->second.doc;
  }
  return project_fields(it->second.doc, fields, charged_bytes);
}

bool MemEngine::replace(DocId id, Value doc, std::size_t& stored_bytes) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  indexes_.remove(id, it->second.doc);
  payload_bytes_ -= it->second.bytes;
  const std::size_t new_bytes = doc.encoded_size();
  payload_bytes_ += new_bytes;
  indexes_.insert(id, doc);
  it->second = StoredDoc{std::move(doc), new_bytes};
  stored_bytes = new_bytes;
  return true;
}

bool MemEngine::update(DocId id, Object fields) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  indexes_.remove(id, it->second.doc);
  Object& obj = it->second.doc.as_object();
  for (auto& [field, value] : fields) {
    obj[field] = std::move(value);
  }
  const std::size_t new_bytes = it->second.doc.encoded_size();
  payload_bytes_ += new_bytes;
  payload_bytes_ -= it->second.bytes;
  it->second.bytes = new_bytes;
  indexes_.insert(id, it->second.doc);
  return true;
}

bool MemEngine::erase(DocId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  indexes_.remove(id, it->second.doc);
  payload_bytes_ -= it->second.bytes;
  docs_.erase(it);
  return true;
}

void MemEngine::create_index(const std::string& field) {
  if (!indexes_.create(field)) return;
  for (const auto& [id, stored] : docs_) {
    indexes_.insert_into(field, id, stored.doc);
  }
}

bool MemEngine::has_index(const std::string& field) const {
  return indexes_.contains(field);
}

std::vector<std::string> MemEngine::index_fields() const {
  return indexes_.fields();
}

void MemEngine::find_eq(const std::string& field, const Value& value,
                        std::vector<DocId>& out) const {
  if (indexes_.find_eq(field, value, out)) return;
  for (const auto& [id, stored] : docs_) {
    if (stored.doc.contains(field) && stored.doc.at(field) == value) {
      out.push_back(id);
    }
  }
}

void MemEngine::find_range(const std::string& field, const Value& lo,
                           const Value& hi, std::vector<DocId>& out) const {
  if (indexes_.find_range(field, lo, hi, out)) return;
  for (const auto& [id, stored] : docs_) {
    if (!stored.doc.contains(field)) continue;
    const Value& v = stored.doc.at(field);
    if (!(v < lo) && v < hi) out.push_back(id);
  }
}

void MemEngine::scan(
    const std::function<void(DocId, const Value&)>& fn) const {
  for (const auto& [id, stored] : docs_) fn(id, stored.doc);
}

void MemEngine::append_ids(std::vector<DocId>& out) const {
  out.reserve(out.size() + docs_.size());
  for (const auto& [id, _] : docs_) out.push_back(id);
}

DocId MemEngine::max_id() const {
  DocId max = 0;
  for (const auto& [id, _] : docs_) max = std::max(max, id);
  return max;
}

// --- factory ----------------------------------------------------------------

std::vector<std::unique_ptr<StorageEngine>> make_shard_engines(
    const StorageEngineConfig& config, const std::string& collection_name,
    std::size_t shards) {
  std::vector<std::unique_ptr<StorageEngine>> engines;
  engines.reserve(shards);
  if (config.kind == EngineKind::kMem) {
    for (std::size_t s = 0; s < shards; ++s) {
      engines.push_back(std::make_unique<MemEngine>());
    }
    return engines;
  }

  FAIRDMS_CHECK(!config.directory.empty(), "collection '", collection_name,
                "': log engine requires a data directory");
  std::filesystem::create_directories(config.directory);
  const std::string meta_path = config.directory + "/engine.meta";
  if (std::filesystem::exists(meta_path)) {
    // Reopen: the shard count is part of the on-disk layout (ids were
    // routed to segments by `id % shards`), so it must match exactly.
    Binary meta;
    std::string error;
    FAIRDMS_CHECK(util::read_file(meta_path, meta, &error), "cannot read ",
                  meta_path, ": ", error);
    util::ByteReader r(meta);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint64_t disk_shards = 0;
    FAIRDMS_CHECK(r.u32(&magic) && r.u32(&version) && r.u64(&disk_shards),
                  "truncated ", meta_path);
    FAIRDMS_CHECK(magic == kMetaMagic, "bad magic in ", meta_path);
    FAIRDMS_CHECK(version == kMetaVersion, "bad version in ", meta_path);
    FAIRDMS_CHECK(disk_shards == shards, "log engine at ", config.directory,
                  " was written with ", disk_shards,
                  " shard(s); reopen requested ", shards,
                  " (resharding a log directory is not supported)");
  } else {
    Binary meta;
    util::ByteWriter w(meta);
    w.u32(kMetaMagic);
    w.u32(kMetaVersion);
    w.u64(shards);
    std::string error;
    FAIRDMS_CHECK(util::write_file_atomic(meta_path, meta, &error),
                  "cannot write ", meta_path, ": ", error);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    engines.push_back(std::make_unique<LogEngine>(
        config.directory + "/shard-" + std::to_string(s) + ".log",
        config.fsync_appends));
  }
  return engines;
}

}  // namespace fairdms::store
