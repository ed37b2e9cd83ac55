#include "store/persist.hpp"

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/fsio.hpp"

namespace fairdms::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kManifestMagic = 0x464D414E;  // "FMAN"
constexpr std::uint32_t kCollectionMagic = 0x46434F4C; // "FCOL"
constexpr std::uint32_t kVersion = 1;

template <typename... Args>
PersistResult fail(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return PersistResult{oss.str()};
}

/// u64 length + bytes: the snapshot files' string encoding.
void write_string(util::ByteWriter& w, const std::string& s) {
  w.u64(s.size());
  w.bytes(s);
}

bool read_string(util::ByteReader& r, std::string& s) {
  std::uint64_t n = 0;
  return r.u64(&n) && r.bytes(n, &s);
}

PersistResult read_snapshot_file(const std::string& path, Binary& out) {
  std::string error;
  if (!util::read_file(path, out, &error)) {
    return fail("cannot read snapshot file: ", error);
  }
  return {};
}

std::string collection_path(const std::string& directory,
                            const std::string& name) {
  return directory + "/" + name + ".col";
}

/// Collection names become file names; reject anything a corrupt manifest
/// could use to escape the snapshot directory.
bool valid_collection_name(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos &&
         name.find('\0') == std::string::npos;
}

PersistResult save_collection(const Collection& col, const std::string& path) {
  // Collect first, frame after: scan/size/next_id are three independent
  // snapshots on a (possibly sharded) live collection, so the file header
  // must describe what the scan actually captured, and next_id must be
  // read *after* the scan — every captured id was allocated before the
  // scan finished, so a post-scan next_id() bounds them all and restore's
  // `id < next_id` check holds. Under concurrent writers the result is a
  // fuzzy but always-loadable point-in-time snapshot.
  std::vector<std::pair<DocId, Binary>> docs;
  col.scan([&](DocId id, const Value& doc) {
    Binary buf;
    doc.encode(buf);
    docs.emplace_back(id, std::move(buf));
  });
  const DocId next_id = col.next_id();
  const auto fields = col.index_fields();

  Binary out;
  util::ByteWriter w(out);
  w.u32(kCollectionMagic);
  w.u32(kVersion);
  w.u64(next_id);
  w.u64(fields.size());
  for (const auto& field : fields) write_string(w, field);
  w.u64(docs.size());
  for (const auto& [id, buf] : docs) {
    w.u64(id);
    w.u64(buf.size());
    w.bytes(buf);
  }
  std::string error;
  if (!util::write_file_atomic(path, out, &error)) {
    return fail("snapshot write failed for ", path, ": ", error);
  }
  return {};
}

PersistResult load_collection(Collection& col, const std::string& path) {
  Binary bytes;
  if (PersistResult r = read_snapshot_file(path, bytes); !r.ok()) return r;

  // Parse and validate the whole file before touching the collection, so a
  // corrupt snapshot leaves it exactly as it was.
  util::ByteReader cur(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!cur.u32(&magic) || magic != kCollectionMagic) {
    return fail("bad collection magic in ", path);
  }
  if (!cur.u32(&version) || version != kVersion) {
    return fail("bad snapshot version in ", path);
  }
  std::uint64_t next_id = 0;
  std::uint64_t n_fields = 0;
  if (!cur.u64(&next_id) || !cur.u64(&n_fields)) {
    return fail("truncated snapshot header in ", path);
  }
  if (n_fields > cur.remaining() / 8) {  // each field costs >= a u64 length
    return fail("bad index-field count in ", path);
  }
  std::vector<std::string> fields;
  fields.reserve(n_fields);
  for (std::uint64_t i = 0; i < n_fields; ++i) {
    std::string field;
    if (!read_string(cur, field)) {
      return fail("truncated index field ", i, " in ", path);
    }
    fields.push_back(std::move(field));
  }
  std::uint64_t count = 0;
  if (!cur.u64(&count)) return fail("truncated snapshot ", path);
  if (count > cur.remaining() / 16) {  // each doc costs >= id + length
    return fail("bad document count in ", path);
  }
  std::vector<std::pair<DocId, Value>> docs;
  docs.reserve(count);
  std::unordered_set<DocId> seen;
  seen.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::uint64_t len = 0;
    std::span<const std::uint8_t> buf;
    if (!cur.u64(&id) || !cur.u64(&len) || !cur.bytes(len, &buf)) {
      return fail("truncated snapshot ", path, " (document ", i, ")");
    }
    if (id >= next_id) {
      return fail("document ", i, " in ", path, ": id ", id, " >= next_id ",
                  next_id);
    }
    if (!seen.insert(id).second) {
      return fail("document ", i, " in ", path, ": duplicate id ", id);
    }
    std::optional<Value> doc = Value::try_decode(buf);
    if (!doc.has_value() || !doc->is_object()) {
      return fail("document ", i, " in ", path, ": undecodable payload");
    }
    docs.emplace_back(id, std::move(*doc));
  }
  if (cur.remaining() != 0) {
    return fail("trailing bytes in snapshot ", path);
  }
  if (col.size() != 0) {
    return fail("restore into non-empty collection '", col.collection_name(),
                "'");
  }
  for (const auto& field : fields) col.create_index(field);
  col.restore(next_id, std::move(docs));
  return {};
}

}  // namespace

PersistResult try_save_store(const DocStore& db,
                             const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return fail("cannot create snapshot directory ", directory, ": ",
                ec.message());
  }
  const auto names = db.collection_names();
  // Collection files land (atomically, durably) before the manifest that
  // names them: a reader never follows a manifest to a missing or
  // half-written .col file, no matter where the writer died.
  for (const auto& name : names) {
    // collection() is non-const but does not mutate an existing collection.
    PersistResult r =
        save_collection(const_cast<DocStore&>(db).collection(name),
                        collection_path(directory, name));
    if (!r.ok()) return r;
  }
  Binary manifest;
  util::ByteWriter w(manifest);
  w.u32(kManifestMagic);
  w.u32(kVersion);
  w.u64(names.size());
  for (const auto& name : names) write_string(w, name);
  std::string error;
  if (!util::write_file_atomic(directory + "/manifest.bin", manifest,
                               &error)) {
    return fail("cannot write manifest in ", directory, ": ", error);
  }
  return {};
}

PersistResult try_snapshot_collections(const std::string& directory,
                                       std::vector<std::string>& names) {
  names.clear();
  const std::string path = directory + "/manifest.bin";
  if (!fs::exists(path)) return fail("no snapshot manifest in ", directory);
  Binary bytes;
  if (PersistResult r = read_snapshot_file(path, bytes); !r.ok()) return r;
  util::ByteReader cur(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!cur.u32(&magic) || magic != kManifestMagic) {
    return fail("bad manifest magic in ", directory);
  }
  if (!cur.u32(&version) || version != kVersion) {
    return fail("bad manifest version in ", directory);
  }
  std::uint64_t n = 0;
  if (!cur.u64(&n)) return fail("truncated manifest in ", directory);
  if (n > cur.remaining() / 8) {
    return fail("bad collection count in manifest in ", directory);
  }
  names.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    if (!read_string(cur, name)) {
      return fail("truncated manifest entry ", i, " in ", directory);
    }
    if (!valid_collection_name(name)) {
      return fail("invalid collection name in manifest in ", directory);
    }
    names.push_back(std::move(name));
  }
  if (cur.remaining() != 0) {
    return fail("trailing bytes in manifest in ", directory);
  }
  return {};
}

PersistResult try_load_store(DocStore& db, const std::string& directory) {
  std::vector<std::string> names;
  if (PersistResult r = try_snapshot_collections(directory, names); !r.ok()) {
    return r;
  }
  for (const auto& name : names) {
    PersistResult r =
        load_collection(db.collection(name), collection_path(directory, name));
    if (!r.ok()) return r;
  }
  return {};
}

}  // namespace fairdms::store
