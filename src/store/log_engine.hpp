// LogEngine: a memory-mapped append-only log storage engine.
//
// One segment file per shard, holding records by id; the collection above
// keeps every index and projection. Every mutation appends a
// length-prefixed, checksummed record — a `put` carrying the full encoded
// document (inserts and rewrites both supersede by id) or a `tombstone`
// (deletes). Reads go through an in-memory id -> (offset, length) index
// into a read-only mmap of the segment; the index, the live-document count,
// the payload-byte accounting and the highest id any record carries are
// rebuilt by replaying the segment on open.
//
// Crash consistency: appends are single sequential write(2) calls, so a
// process killed at any byte offset leaves the segment equal to a prefix
// of the record stream plus at most one torn record. Replay stops at the
// first incomplete or checksum-failing record and truncates it away — the
// engine recovers to the last complete record, losing at most the
// in-flight tail. `compact()` rewrites only the live documents through a
// tmp + fsync + rename rotation (the util/fsio.hpp pattern), so a crash
// mid-compaction leaves either the old segment or the new one, never a
// mix. When the highest id the segment ever held is no longer live,
// compaction keeps one tombstone for it: that id floor is what stops a
// reopened collection from handing a removed id out again, and replay
// treats a tombstone for an absent id as a no-op.
//
// Record layout (after a 16-byte segment header: u32 magic, u32 version,
// 8 reserved zero bytes), all integers little-endian (util/bytes.hpp):
//   u32 payload_len | u8 kind (1=put, 2=tombstone) | u64 id
//   | payload_len bytes (Value::encode of the document; empty for
//     tombstones) | u32 checksum (FNV-1a over kind, id, payload)
//
// Like every StorageEngine, all methods run under the owning shard's lock;
// the mmap is remapped only during exclusive-lock appends (the mapping is
// sized ahead of the file so shared-lock readers never touch mmap state).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "store/storage_engine.hpp"

namespace fairdms::store {

class LogEngine final : public StorageEngine {
 public:
  /// Opens (or creates) segment `path` and replays it. Aborts on real I/O
  /// or format errors (wrong magic/version: the path is not a segment);
  /// a torn tail is not an error — it is truncated away with a log line.
  explicit LogEngine(std::string path, bool fsync_appends = false);
  ~LogEngine() override;

  LogEngine(const LogEngine&) = delete;
  LogEngine& operator=(const LogEngine&) = delete;

  void insert(DocId id, Value doc, std::size_t bytes) override;
  /// Decodes the document from the mapping.
  bool read(DocId id, ReadFn fn) const override;
  /// Decodes, calls fn, and appends the result as a new put record.
  bool rewrite(DocId id, RewriteFn fn) override;
  bool erase(DocId id) override;

  void for_each(ForEachFn fn) const override;
  void append_ids(std::vector<DocId>& out) const override;
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] std::size_t payload_bytes() const override {
    return payload_bytes_;
  }
  [[nodiscard]] DocId max_id() const override { return max_id_; }

  /// Rewrites the segment with only the live documents (tmp + fsync +
  /// rename), dropping superseded records and tombstones — except a
  /// tombstone for max_id() when that id is not live, so the id floor
  /// survives rotation.
  void compact() override;

  /// Current segment size in bytes (observability + compaction tests).
  [[nodiscard]] std::size_t segment_bytes() const { return file_size_; }

 private:
  struct Entry {
    std::uint64_t offset = 0;  ///< payload offset within the segment
    std::uint32_t length = 0;  ///< payload length == encoded document size
  };

  void open_and_replay();
  /// Encodes `doc` and appends it as the current version of `id`.
  void put(DocId id, const Value& doc, std::size_t size_hint);
  /// Appends one framed record; returns the payload's file offset.
  std::uint64_t append_record(std::uint8_t kind, DocId id,
                              std::span<const std::uint8_t> payload);
  /// Ensures the read mapping covers at least `size` file bytes.
  void ensure_mapped(std::size_t size);
  /// Decodes the entry's payload straight from the mapping (depth-capped
  /// Value::try_decode); aborts if a checksummed record fails to decode.
  [[nodiscard]] Value load_doc(const Entry& entry) const;
  void close_files();

  std::string path_;
  bool fsync_appends_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_capacity_ = 0;
  std::size_t file_size_ = 0;
  /// Ordered so scans run in id order.
  std::map<DocId, Entry> entries_;
  std::size_t payload_bytes_ = 0;
  /// Highest id any replayed or appended record carries, put or tombstone.
  DocId max_id_ = 0;
};

}  // namespace fairdms::store
