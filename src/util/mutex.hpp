#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/annotations.hpp"
#include "util/check.hpp"

namespace fairdms::util {

/// Global lock-acquisition order, machine-checked in Debug builds.
///
/// Every `util::Mutex` / `util::SharedMutex` carries a rank; acquiring a
/// ranked lock while holding another ranked lock of an equal or higher rank
/// aborts (Debug/!NDEBUG only — the checker compiles away in Release, so
/// the wrappers cost exactly a `std::mutex` there). Lower rank = acquired
/// earlier / outermost. `kUnranked` opts a mutex out of order checking.
///
/// The hierarchy encodes every nesting that actually occurs today:
///   - FairDS's system plane wraps store fan-out, pool help-loops, and
///     logging (train/ingest hold `system_mutex_` across all of them).
///   - The zoo mutation mutex wraps the cache invalidate and the store
///     commit — the ordering invariant PR 5 argued in prose.
///   - `DataService::stats()` holds the stats mutex while reading the
///     model-cache gauges, so the cache ranks above the stats mutex.
///   - Logging is innermost: any subsystem may emit while holding its own
///     lock (e.g. `DocStore::collection` logs under the map lock).
enum class LockRank : int {
  kUnranked = 0,       ///< not order-checked (ad-hoc/test mutexes)
  kSystemPlane = 10,   ///< fairds::FairDS::system_mutex_
  kZooMutation = 20,   ///< fairms::ModelZoo::mutation_mutex_
  kStoreMap = 30,      ///< store::DocStore::mutex_ (collection map)
  kStoreShard = 40,    ///< store::Collection::Shard::mutex
  kThreadPool = 50,    ///< util::ThreadPool::mutex_
  kStreamRegistry = 55,  ///< service::StreamRegistry::mutation_mutex_
  kServiceStats = 60,  ///< service per-stream stats mutexes
  kModelCache = 70,    ///< fairms::ModelCache::mutex_
  kPublished = 75,     ///< util::Published pointer (held to copy or swap)
  kWorkflow = 80,      ///< workflow::FuncXRegistry / TransferService
  kDataLoader = 82,    ///< store::DataLoader::mutex_
  kNfsMeta = 84,       ///< store::NfsStore::meta_mutex_
  kNetConnection = 86, ///< net::Server per-connection write buffer
  kTaskLocal = 88,     ///< function-local mutexes inside pool tasks
  kLogging = 90,       ///< util/logging emit mutex (innermost)
};

namespace lock_rank_detail {
#ifndef NDEBUG
/// Abort if acquiring `rank` would violate the global order given the
/// ranked locks this thread already holds. No-op for kUnranked (rank 0).
void check_acquire(int rank, const char* what);
/// Record `rank` as held by this thread (after a successful acquisition).
void note_acquired(int rank);
/// Remove the most recent occurrence of `rank` from this thread's stack.
void note_released(int rank);
/// Ranked locks currently held by this thread (test/introspection hook).
std::size_t held_ranks();
#else
inline void check_acquire(int, const char*) {}
inline void note_acquired(int) {}
inline void note_released(int) {}
inline std::size_t held_ranks() { return 0; }
#endif
}  // namespace lock_rank_detail

class MutexLock;

/// Annotated drop-in for `std::mutex`: a Clang TSA capability plus the
/// Debug-only rank checker. Lock it through `util::MutexLock` (RAII) or
/// balanced lock()/unlock() pairs in one function — TSA rejects anything
/// else. Condition-variable interop goes through `MutexLock::native()`.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(static_cast<int>(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank_detail::check_acquire(rank_, "Mutex::lock");
    mu_.lock();
    lock_rank_detail::note_acquired(rank_);
  }
  void unlock() RELEASE() {
    lock_rank_detail::note_released(rank_);
    mu_.unlock();
  }
  /// No rank check: a failed try cannot deadlock, and try-then-back-off is
  /// a legitimate way to acquire against the grain of the order.
  bool try_lock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) lock_rank_detail::note_acquired(rank_);
    return ok;
  }

  int rank() const { return rank_; }

 private:
  friend class MutexLock;
  std::mutex mu_;
  int rank_ = 0;
};

/// Annotated drop-in for `std::shared_mutex`. Exclusive via
/// `util::MutexLock`, shared via `util::ReaderLock`. Shared acquisitions
/// participate in rank checking exactly like exclusive ones.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank) : rank_(static_cast<int>(rank)) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank_detail::check_acquire(rank_, "SharedMutex::lock");
    mu_.lock();
    lock_rank_detail::note_acquired(rank_);
  }
  void unlock() RELEASE() {
    lock_rank_detail::note_released(rank_);
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) lock_rank_detail::note_acquired(rank_);
    return ok;
  }

  void lock_shared() ACQUIRE_SHARED() {
    lock_rank_detail::check_acquire(rank_, "SharedMutex::lock_shared");
    mu_.lock_shared();
    lock_rank_detail::note_acquired(rank_);
  }
  void unlock_shared() RELEASE_SHARED() {
    lock_rank_detail::note_released(rank_);
    mu_.unlock_shared();
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    const bool ok = mu_.try_lock_shared();
    if (ok) lock_rank_detail::note_acquired(rank_);
    return ok;
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  int rank_ = 0;
};

/// RAII exclusive lock — the drop-in for `std::scoped_lock` /
/// `std::lock_guard` / `std::unique_lock` over either wrapper type.
///
/// When constructed over a `Mutex`, `native()` exposes a
/// `std::unique_lock<std::mutex>` bound to the underlying mutex for
/// `std::condition_variable::wait`. The capability (and the rank-stack
/// entry) stays nominally held across a wait, matching both TSA's model
/// and the contract of `cv.wait` — do not release `native()` by hand.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu.lock();
    native_ = std::unique_lock<std::mutex>(mu.mu_, std::adopt_lock);
  }
  explicit MutexLock(SharedMutex& mu) ACQUIRE(mu) : shared_(&mu) {
    mu.lock();
  }
  ~MutexLock() RELEASE_GENERIC() {
    if (mu_ != nullptr) {
      native_.release();  // disassociate only; unlock() below releases
      mu_->unlock();
    } else {
      shared_->unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  std::unique_lock<std::mutex>& native() {
    FAIRDMS_CHECK(mu_ != nullptr,
                  "MutexLock::native() is only available over util::Mutex "
                  "(condition variables need the underlying std::mutex)");
    return native_;
  }

 private:
  Mutex* mu_ = nullptr;
  SharedMutex* shared_ = nullptr;
  std::unique_lock<std::mutex> native_;
};

/// RAII shared (reader) lock — the drop-in for `std::shared_lock`.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu.lock_shared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_->unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace fairdms::util
