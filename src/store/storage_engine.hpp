// Pluggable storage engines behind store::Collection.
//
// MongoDB's architecture separates the document/query surface from the
// storage engine underneath it (MMAPv1 -> WiredTiger swapped without the
// query layer noticing); this seam is the same cut for the fairDS store.
// An engine keeps records by id: it stores, reads, rewrites, erases and
// enumerates documents, and accounts their resident payload bytes. No
// engine method takes a field name. Collection owns everything keyed by a
// field — the secondary indexes and their upkeep, find_eq's scan fallback,
// projections and their charges, update's read-modify-write — written once
// in its per-shard core over any engine, plus identity (name, id
// allocation), sharding, locking and RemoteLink charge accounting. One
// engine instance per shard.
//
// Contract: every method is invoked with the owning shard's lock held —
// exclusively for mutations, shared for const reads — so engines are
// written single-threaded and inherit the collection's locking discipline
// (including the thread-safety annotations and the TSan suites)
// unchanged. Engines only report the stored-payload bytes a read touches,
// so RemoteLink accounting is engine-independent by construction.
//
// Engines:
//  * MemEngine — the seed's in-memory document map with cached encoded
//    sizes.
//  * LogEngine (log_engine.hpp) — a memory-mapped append-only log with an
//    in-memory id->offset index, tombstones, and explicit compaction; the
//    first durable engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/document.hpp"
#include "util/function_ref.hpp"

namespace fairdms::store {

using DocId = std::uint64_t;

enum class EngineKind : std::uint8_t {
  kMem,  ///< in-memory (the seed behavior; nothing survives the process)
  kLog,  ///< memory-mapped append-only log (durable, crash-recovering)
};

[[nodiscard]] const char* to_string(EngineKind kind);
/// "mem" | "log" -> kind; nullopt on anything else.
[[nodiscard]] std::optional<EngineKind> parse_engine_kind(
    std::string_view name);

/// Engine selection + engine-specific knobs, plumbed from DocStoreConfig /
/// FairDSConfig down to the per-shard engine instances.
struct StorageEngineConfig {
  EngineKind kind = EngineKind::kMem;
  /// kLog: the collection's data directory (created if missing), holding
  /// `engine.meta` plus one `shard-<k>.log` segment per shard. When the
  /// config enters through DocStoreConfig the directory is the *store*
  /// root and the collection name is appended automatically.
  std::string directory;
  /// kLog: fdatasync every committed append. kill -9 safety never needs
  /// this (the kernel keeps completed writes); power-loss durability does.
  bool fsync_appends = false;
};

/// One shard's storage: documents by id, nothing keyed by a field. All
/// methods are called under the owning shard's lock (exclusive for
/// mutations, shared for const reads) — see file comment for the full
/// contract. Callbacks run before the method returns, under that lock.
class StorageEngine {
 public:
  /// Receives a stored document and its encoded size.
  using ReadFn = util::FunctionRef<void(const Value& doc, std::size_t bytes)>;
  using RewriteFn = util::FunctionRef<void(Value& doc)>;
  using ForEachFn = util::FunctionRef<void(DocId id, const Value& doc)>;

  virtual ~StorageEngine() = default;

  /// Stores a new document under `id` (`_id` already stamped by the
  /// caller); `bytes` is its encoded size, which the engine reports back
  /// through read() and payload_bytes(). `id` must not be live.
  virtual void insert(DocId id, Value doc, std::size_t bytes) = 0;

  /// Calls fn(doc, bytes) with document `id`; false (fn not called) when
  /// absent.
  virtual bool read(DocId id, ReadFn fn) const = 0;

  /// Lets fn modify document `id`, then stores the result (payload
  /// accounting maintained). False (fn not called) when absent.
  virtual bool rewrite(DocId id, RewriteFn fn) = 0;

  /// Removes document `id`; false when absent.
  virtual bool erase(DocId id) = 0;

  /// Applies fn to every live (id, doc); iteration order is unspecified.
  virtual void for_each(ForEachFn fn) const = 0;
  /// Appends every live id (order unspecified; Collection sorts).
  virtual void append_ids(std::vector<DocId>& out) const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Resident payload bytes: the sum of live documents' encoded sizes —
  /// identical across engines so approx_bytes() is engine-independent.
  [[nodiscard]] virtual std::size_t payload_bytes() const = 0;
  /// Highest id any record ever carried, live or removed (0 when none) —
  /// lets a reopened durable engine resume the collection's id counter
  /// past every id it handed out.
  [[nodiscard]] virtual DocId max_id() const = 0;

  /// Reclaims space held by superseded/tombstoned records (durable
  /// engines); a no-op for purely in-memory storage.
  virtual void compact() {}
};

/// The seed's in-memory per-shard store behind the engine seam: document
/// map with cached encoded sizes and payload byte accounting.
class MemEngine final : public StorageEngine {
 public:
  void insert(DocId id, Value doc, std::size_t bytes) override;
  /// Lends the stored document itself: no copy.
  bool read(DocId id, ReadFn fn) const override;
  /// Modifies the stored document in place.
  bool rewrite(DocId id, RewriteFn fn) override;
  bool erase(DocId id) override;

  void for_each(ForEachFn fn) const override;
  void append_ids(std::vector<DocId>& out) const override;
  [[nodiscard]] std::size_t size() const override { return docs_.size(); }
  [[nodiscard]] std::size_t payload_bytes() const override {
    return payload_bytes_;
  }
  [[nodiscard]] DocId max_id() const override { return max_id_; }

 private:
  /// A stored document plus its cached encoded size, so every read charges
  /// real bytes without re-serializing the (often multi-KB) payload.
  struct StoredDoc {
    Value doc;
    std::size_t bytes = 0;
  };

  std::unordered_map<DocId, StoredDoc> docs_;
  std::size_t payload_bytes_ = 0;
  DocId max_id_ = 0;
};

/// Builds the per-shard engines for one collection. For kLog this creates
/// (or validates) the collection directory — `engine.meta` pins the shard
/// count a log directory was written with, so a reopen with a different
/// count fails loudly instead of silently mis-routing ids — and replays
/// each shard's segment. `config.directory` is used as the collection
/// directory verbatim.
std::vector<std::unique_ptr<StorageEngine>> make_shard_engines(
    const StorageEngineConfig& config, const std::string& collection_name,
    std::size_t shards);

}  // namespace fairdms::store
