// util::Published — an immutable value published through one shared_ptr:
// readers copy the pointer, a writer swaps in a new one, each under a mutex
// held only for that copy or swap, so a reader waits at most for a pointer
// swap and never for a value being built.
//
// It stands in for C++20's atomic shared_ptr specialization. libstdc++
// guards that with a lock bit too (it is not lock-free), and GCC 12's load
// releases the bit with a relaxed fetch_sub, so a store racing a load is a
// data race that ThreadSanitizer reports.
#pragma once

#include <memory>
#include <utility>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fairdms::util {

template <typename T>
class Published {
 public:
  Published() = default;
  explicit Published(std::shared_ptr<const T> initial)
      : value_(std::move(initial)) {}
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  /// The current value; the copy stays valid across later publishes.
  [[nodiscard]] std::shared_ptr<const T> load() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return value_;
  }

  void publish(std::shared_ptr<const T> next) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    value_.swap(next);  // the previous value dies with `next`, after the unlock
  }

 private:
  mutable Mutex mutex_{LockRank::kPublished};
  std::shared_ptr<const T> value_ GUARDED_BY(mutex_);
};

}  // namespace fairdms::util
