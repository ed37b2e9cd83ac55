// Parameter-blob cache of the fairMS model plane.
//
// The paper's workload re-loads the same foundation models over and over
// (every update fine-tunes the closest zoo model), yet each load used to
// re-fetch the full parameter blob across the RemoteLink. ModelCache keeps
// fully materialized zoo records (metadata + shared parameter blob) hot, so
// a repeat foundation load costs zero link bytes. Ranking does not use the
// cache: it reads the zoo's rank index (see ModelZoo).
//
// Consistency model: entries carry the record's revision (assigned by the
// owning ModelZoo's monotonic counter). Mutations call
// invalidate_below(id, new_revision), which both drops an older entry and
// *pins a floor*: a reader that raced the mutation (read the old document,
// then tried to cache it after the invalidation) has its stale put rejected.
// Coherence therefore holds for any interleaving of readers and writers that
// share one ModelZoo; writers bypassing the zoo (a second ModelZoo over the
// same store) require an explicit invalidate_below/clear.
//
// Thread-safety: every method that reads or writes entries takes one
// internal mutex (the budget is fixed at construction); returned shared_ptr
// handles outlive eviction.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/docstore.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fairdms::fairms {

/// A fully materialized zoo record as the cache holds it. The parameter
/// blob is shared (never copied per reader); `train_pdf` is the *stored*
/// (unnormalized) distribution, exactly what ModelZoo::fetch returns.
struct CachedModel {
  store::DocId id = 0;
  std::uint64_t revision = 0;
  std::string architecture;
  std::string dataset_id;
  std::vector<double> train_pdf;
  std::shared_ptr<const std::vector<std::uint8_t>> parameters;
};

/// Counter snapshot (see ModelCache::stats).
struct ModelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;      ///< entries dropped to meet the budget
  std::uint64_t invalidations = 0;  ///< entries dropped by revision bumps
  std::size_t entries = 0;
  std::size_t resident_bytes = 0;
  std::size_t budget_bytes = 0;
};

class ModelCache {
 public:
  using RecordPtr = std::shared_ptr<const CachedModel>;

  /// `budget_bytes == 0` disables caching: every get misses, every put is a
  /// no-op.
  explicit ModelCache(std::size_t budget_bytes);

  /// Record lookup by id alone — a hit is trusted without consulting the
  /// store (the zero-link-bytes fast path). Entries can only exist at or
  /// above the id's invalidation floor, so same-zoo writers can never leave
  /// a stale record behind.
  [[nodiscard]] RecordPtr get_record(store::DocId id);
  /// Inserts/replaces the record entry of record->id. Rejected (dropped)
  /// when record->revision is below the id's invalidation floor or the
  /// record alone exceeds the whole budget.
  void put_record(RecordPtr record);

  /// Whether a record entry with these components would fit the budget —
  /// the exact admission arithmetic put_record applies, for callers
  /// deciding whether pre-warming is worth a blob copy.
  [[nodiscard]] bool admits_record(std::size_t blob_bytes,
                                   std::size_t pdf_len, std::size_t arch_len,
                                   std::size_t dataset_len) const;

  /// Drops `id`'s entry when its revision is < `revision` and refuses
  /// future puts below it. Called by the zoo on attach_parameters/reindex
  /// with the freshly assigned revision.
  void invalidate_below(store::DocId id, std::uint64_t revision);

  /// Drops every entry (floors included). For external-writer recovery and
  /// cold-start measurements.
  void clear();

  [[nodiscard]] ModelCacheStats stats() const;

 private:
  struct Entry {
    std::size_t bytes = 0;
    RecordPtr record;
    std::list<store::DocId>::iterator lru_it;
  };

  static std::size_t record_bytes(std::size_t blob_bytes, std::size_t pdf_len,
                                  std::size_t arch_len,
                                  std::size_t dataset_len);
  static std::size_t record_bytes(const CachedModel& record);

  // The "assume mutex_ is held" convention, compiler-checked: calling any
  // helper without the lock is a thread-safety build error.
  void touch_locked(Entry& entry) REQUIRES(mutex_);
  void erase_locked(store::DocId id) REQUIRES(mutex_);
  void insert_locked(store::DocId id, Entry&& entry) REQUIRES(mutex_);
  void evict_to_budget_locked() REQUIRES(mutex_);

  const std::size_t budget_bytes_;
  mutable util::Mutex mutex_{util::LockRank::kModelCache};
  std::size_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  /// front = most recently used
  std::list<store::DocId> lru_ GUARDED_BY(mutex_);
  std::unordered_map<store::DocId, Entry> entries_ GUARDED_BY(mutex_);
  /// id -> lowest admissible revision (see invalidate_below).
  std::unordered_map<store::DocId, std::uint64_t> floors_ GUARDED_BY(mutex_);
  std::uint64_t hits_ GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ GUARDED_BY(mutex_) = 0;
  std::uint64_t invalidations_ GUARDED_BY(mutex_) = 0;
};

}  // namespace fairdms::fairms
