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

// --- MemEngine --------------------------------------------------------------

void MemEngine::insert(DocId id, Value doc, std::size_t bytes) {
  payload_bytes_ += bytes;
  max_id_ = std::max(max_id_, id);
  docs_.emplace(id, StoredDoc{std::move(doc), bytes});
}

bool MemEngine::read(DocId id, ReadFn fn) const {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  fn(it->second.doc, it->second.bytes);
  return true;
}

bool MemEngine::rewrite(DocId id, RewriteFn fn) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  fn(it->second.doc);
  const std::size_t new_bytes = it->second.doc.encoded_size();
  payload_bytes_ += new_bytes;
  payload_bytes_ -= it->second.bytes;
  it->second.bytes = new_bytes;
  return true;
}

bool MemEngine::erase(DocId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  payload_bytes_ -= it->second.bytes;
  docs_.erase(it);
  return true;
}

void MemEngine::for_each(ForEachFn fn) const {
  for (const auto& [id, stored] : docs_) fn(id, stored.doc);
}

void MemEngine::append_ids(std::vector<DocId>& out) const {
  out.reserve(out.size() + docs_.size());
  for (const auto& [id, _] : docs_) out.push_back(id);
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
