#include "store/log_engine.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"

namespace fairdms::store {

namespace {

constexpr std::uint32_t kSegmentMagic = 0x464C4F47;  // "FLOG"
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kHeaderBytes = 16;  // magic + version + 8 reserved
// len(4) + kind(1) + id(8) + checksum(4)
constexpr std::size_t kRecordOverhead = 17;
constexpr std::size_t kPayloadOffsetInRecord = 13;
constexpr std::uint8_t kPut = 1;
constexpr std::uint8_t kTombstone = 2;
constexpr std::size_t kInitialMapCapacity = std::size_t{1} << 20;  // 1 MiB

/// FNV-1a over a record's contiguous kind, id and payload bytes: cheap,
/// and torn tails are the threat model (a prefix of a valid record), not
/// adversarial collisions.
std::uint32_t record_checksum(std::span<const std::uint8_t> body) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t byte : body) {
    h ^= byte;
    h *= 16777619u;
  }
  return h;
}

/// The segment header: magic, version, 8 reserved zero bytes.
Binary segment_header() {
  Binary out;
  util::ByteWriter w(out);
  w.u32(kSegmentMagic);
  w.u32(kSegmentVersion);
  w.u64(0);
  return out;
}

/// Appends one framed record to `out`:
/// len | kind | id | payload | checksum(kind, id, payload).
void frame_record(Binary& out, std::uint8_t kind, DocId id,
                  std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  util::ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(kind);
  w.u64(id);
  w.bytes(payload);
  w.u32(record_checksum(std::span(out).subspan(start + 4)));
}

}  // namespace

LogEngine::LogEngine(std::string path, bool fsync_appends)
    : path_(std::move(path)), fsync_appends_(fsync_appends) {
  open_and_replay();
}

LogEngine::~LogEngine() { close_files(); }

void LogEngine::close_files() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_capacity_);
    map_ = nullptr;
    map_capacity_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void LogEngine::ensure_mapped(std::size_t size) {
  if (size <= map_capacity_) return;
  std::size_t capacity = std::max(map_capacity_, kInitialMapCapacity);
  while (capacity < size) capacity *= 2;
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_capacity_);
    map_ = nullptr;
  }
  // Mapping beyond EOF is fine: only offsets < file_size_ are ever read,
  // and those pages exist. Sizing the map ahead of the file keeps remaps
  // off the shared-lock read path entirely.
  void* mapped =
      ::mmap(nullptr, capacity, PROT_READ, MAP_SHARED, fd_, 0);
  FAIRDMS_CHECK(mapped != MAP_FAILED, "mmap failed for ", path_, ": ",
                std::strerror(errno));
  map_ = static_cast<const std::uint8_t*>(mapped);
  map_capacity_ = capacity;
}

void LogEngine::open_and_replay() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  FAIRDMS_CHECK(fd_ >= 0, "cannot open log segment ", path_, ": ",
                std::strerror(errno));
  struct stat st{};
  FAIRDMS_CHECK(::fstat(fd_, &st) == 0, "cannot stat ", path_);
  file_size_ = static_cast<std::size_t>(st.st_size);

  if (file_size_ < kHeaderBytes) {
    // Empty, or a writer died inside the initial header write — either
    // way there cannot be any committed record; start the segment fresh.
    if (file_size_ != 0) {
      util::log_info("log segment ", path_, ": discarding ", file_size_,
                     " torn header byte(s)");
      FAIRDMS_CHECK(::ftruncate(fd_, 0) == 0, "cannot truncate torn header of ",
                    path_);
    }
    const Binary header = segment_header();
    FAIRDMS_CHECK(util::write_all(fd_, header.data(), header.size()),
                  "cannot initialize log segment ", path_);
    file_size_ = kHeaderBytes;
    ensure_mapped(file_size_);
    return;
  }

  ensure_mapped(file_size_);
  util::ByteReader r({map_, file_size_});
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t reserved = 0;
  const bool header_read =
      r.u32(&magic) && r.u32(&version) && r.u64(&reserved);
  FAIRDMS_CHECK(header_read && magic == kSegmentMagic, "bad magic in ", path_,
                " (not a log segment)");
  FAIRDMS_CHECK(version == kSegmentVersion,
                "unsupported log segment version in ", path_);

  // Replay. Stop at the first incomplete or checksum-failing record: with
  // sequential appends that is the torn tail of a crashed writer, and
  // everything before it is intact by construction.
  std::size_t pos = kHeaderBytes;
  while (true) {
    std::uint32_t len = 0;
    std::uint8_t kind = 0;
    DocId id = 0;
    std::span<const std::uint8_t> payload;
    std::uint32_t stored_sum = 0;
    if (!(r.u32(&len) && r.u8(&kind) && r.u64(&id) &&
          r.bytes(len, &payload) && r.u32(&stored_sum))) {
      break;
    }
    const std::span<const std::uint8_t> body(map_ + pos + 4,
                                             kPayloadOffsetInRecord - 4 + len);
    if (stored_sum != record_checksum(body) ||
        (kind != kPut && kind != kTombstone)) {
      break;
    }
    max_id_ = std::max(max_id_, id);
    auto it = entries_.find(id);
    if (kind == kPut) {
      if (it != entries_.end()) payload_bytes_ -= it->second.length;
      entries_[id] = Entry{pos + kPayloadOffsetInRecord, len};
      payload_bytes_ += len;
    } else if (it != entries_.end()) {
      payload_bytes_ -= it->second.length;
      entries_.erase(it);
    }
    pos = r.position();
  }

  if (pos != file_size_) {
    util::log_info("log segment ", path_, ": recovered ", entries_.size(),
                   " document(s), truncating ", file_size_ - pos,
                   " torn tail byte(s) at offset ", pos);
    FAIRDMS_CHECK(::ftruncate(fd_, static_cast<off_t>(pos)) == 0,
                  "cannot truncate torn tail of ", path_);
    file_size_ = pos;
  }
}

std::uint64_t LogEngine::append_record(std::uint8_t kind, DocId id,
                                       std::span<const std::uint8_t> payload) {
  FAIRDMS_CHECK(payload.size() <= UINT32_MAX, "log record payload too large (",
                payload.size(), " bytes)");
  Binary record;
  record.reserve(kRecordOverhead + payload.size());
  frame_record(record, kind, id, payload);
  FAIRDMS_CHECK(util::write_all(fd_, record.data(), record.size()),
                "append failed for ", path_, ": ", std::strerror(errno));
  const std::uint64_t payload_offset = file_size_ + kPayloadOffsetInRecord;
  file_size_ += record.size();
  max_id_ = std::max(max_id_, id);
  if (fsync_appends_) {
    FAIRDMS_CHECK(::fdatasync(fd_) == 0, "fdatasync failed for ", path_);
  }
  ensure_mapped(file_size_);
  return payload_offset;
}

Value LogEngine::load_doc(const Entry& entry) const {
  std::optional<Value> doc =
      Value::try_decode({map_ + entry.offset, entry.length});
  FAIRDMS_CHECK(doc.has_value(), "document decode: corrupt document at offset ",
                entry.offset, " of ", path_);
  return std::move(*doc);
}

void LogEngine::put(DocId id, const Value& doc, std::size_t size_hint) {
  Binary payload;
  payload.reserve(size_hint);
  doc.encode(payload);
  const std::uint64_t offset = append_record(kPut, id, payload);
  Entry& entry = entries_[id];
  payload_bytes_ += payload.size();
  payload_bytes_ -= entry.length;
  entry = Entry{offset, static_cast<std::uint32_t>(payload.size())};
}

void LogEngine::insert(DocId id, Value doc, std::size_t bytes) {
  put(id, doc, bytes);
}

bool LogEngine::read(DocId id, ReadFn fn) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  fn(load_doc(it->second), it->second.length);
  return true;
}

bool LogEngine::rewrite(DocId id, RewriteFn fn) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  Value doc = load_doc(it->second);
  fn(doc);
  put(id, doc, it->second.length);
  return true;
}

bool LogEngine::erase(DocId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  append_record(kTombstone, id, {});
  payload_bytes_ -= it->second.length;
  entries_.erase(it);
  return true;
}

void LogEngine::for_each(ForEachFn fn) const {
  for (const auto& [id, entry] : entries_) fn(id, load_doc(entry));
}

void LogEngine::append_ids(std::vector<DocId>& out) const {
  out.reserve(out.size() + entries_.size());
  for (const auto& [id, _] : entries_) out.push_back(id);
}

void LogEngine::compact() {
  const std::string tmp = path_ + ".tmp";
  const int tfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  FAIRDMS_CHECK(tfd >= 0, "cannot create ", tmp, ": ", std::strerror(errno));

  Binary record = segment_header();
  bool ok = util::write_all(tfd, record.data(), record.size());
  std::map<DocId, Entry> rewritten;
  std::size_t new_size = kHeaderBytes;
  for (const auto& [id, entry] : entries_) {
    if (!ok) break;
    record.clear();
    frame_record(record, kPut, id, {map_ + entry.offset, entry.length});
    ok = util::write_all(tfd, record.data(), record.size());
    rewritten[id] = Entry{new_size + kPayloadOffsetInRecord, entry.length};
    new_size += record.size();
  }
  if (ok && max_id_ != 0 && entries_.count(max_id_) == 0) {
    record.clear();
    frame_record(record, kTombstone, max_id_, {});
    ok = util::write_all(tfd, record.data(), record.size());
    new_size += record.size();
  }
  if (ok) ok = ::fsync(tfd) == 0;
  ::close(tfd);
  FAIRDMS_CHECK(ok, "compaction write failed for ", tmp, ": ",
                std::strerror(errno));
  FAIRDMS_CHECK(std::rename(tmp.c_str(), path_.c_str()) == 0,
                "compaction rename failed for ", path_, ": ",
                std::strerror(errno));
  std::string error;
  FAIRDMS_CHECK(util::fsync_parent_dir(path_, &error),
                "compaction dir fsync failed: ", error);

  // Swap to the rotated segment: the old fd/mapping still reference the
  // unlinked inode until closed.
  close_files();
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  FAIRDMS_CHECK(fd_ >= 0, "cannot reopen compacted segment ", path_);
  file_size_ = new_size;
  ensure_mapped(file_size_);
  entries_ = std::move(rewritten);
}

}  // namespace fairdms::store
