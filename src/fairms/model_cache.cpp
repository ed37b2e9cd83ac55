#include "fairms/model_cache.hpp"

#include <utility>

namespace fairdms::fairms {

namespace {
/// Per-entry bookkeeping overhead (map node, LRU node, control blocks) so a
/// budget of N small entries doesn't admit an unbounded count of tiny ones.
constexpr std::size_t kEntryOverhead = 64;
}  // namespace

ModelCache::ModelCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::size_t ModelCache::record_bytes(std::size_t blob_bytes,
                                     std::size_t pdf_len,
                                     std::size_t arch_len,
                                     std::size_t dataset_len) {
  return kEntryOverhead + blob_bytes + pdf_len * sizeof(double) + arch_len +
         dataset_len;
}

std::size_t ModelCache::record_bytes(const CachedModel& record) {
  return record_bytes(
      record.parameters != nullptr ? record.parameters->size() : 0,
      record.train_pdf.size(), record.architecture.size(),
      record.dataset_id.size());
}

bool ModelCache::admits_record(std::size_t blob_bytes, std::size_t pdf_len,
                               std::size_t arch_len,
                               std::size_t dataset_len) const {
  return record_bytes(blob_bytes, pdf_len, arch_len, dataset_len) <=
         budget_bytes_;
}

void ModelCache::touch_locked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void ModelCache::erase_locked(store::DocId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  resident_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void ModelCache::insert_locked(store::DocId id, Entry&& entry) {
  erase_locked(id);
  if (entry.bytes > budget_bytes_) return;  // would evict the whole cache
  lru_.push_front(id);
  entry.lru_it = lru_.begin();
  resident_bytes_ += entry.bytes;
  entries_.emplace(id, std::move(entry));
  evict_to_budget_locked();
}

void ModelCache::evict_to_budget_locked() {
  while (resident_bytes_ > budget_bytes_ && !lru_.empty()) {
    erase_locked(lru_.back());
    ++evictions_;
  }
}

ModelCache::RecordPtr ModelCache::get_record(store::DocId id) {
  util::MutexLock lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  touch_locked(it->second);
  return it->second.record;
}

void ModelCache::put_record(RecordPtr record) {
  if (record == nullptr) return;
  util::MutexLock lock(mutex_);
  const auto floor = floors_.find(record->id);
  if (floor != floors_.end() && record->revision < floor->second) {
    return;  // raced a mutation: this read is already stale
  }
  Entry entry;
  entry.bytes = record_bytes(*record);
  entry.record = std::move(record);
  insert_locked(entry.record->id, std::move(entry));
}

void ModelCache::invalidate_below(store::DocId id, std::uint64_t revision) {
  util::MutexLock lock(mutex_);
  auto& floor = floors_[id];
  if (revision > floor) floor = revision;
  const auto it = entries_.find(id);
  if (it != entries_.end() && it->second.record->revision < revision) {
    erase_locked(id);
    ++invalidations_;
  }
}

void ModelCache::clear() {
  util::MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  floors_.clear();
  resident_bytes_ = 0;
}

ModelCacheStats ModelCache::stats() const {
  util::MutexLock lock(mutex_);
  ModelCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.invalidations = invalidations_;
  out.entries = entries_.size();
  out.resident_bytes = resident_bytes_;
  out.budget_bytes = budget_bytes_;
  return out;
}

}  // namespace fairdms::fairms
