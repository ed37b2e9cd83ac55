// Shared helpers of the fairDMS benchmark driver: a phase clock, latency
// samples that count failures as missed limits, in-memory trace spans, and a
// minimal JSON writer for the result lines.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `epoch` (negative before it).
inline double since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

inline Clock::time_point at(Clock::time_point epoch, double seconds) {
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

inline void sleep_until(Clock::time_point epoch, double seconds) {
  std::this_thread::sleep_until(at(epoch, seconds));
}

/// Latencies of one operation type. A failed operation is kept as +inf, so
/// it counts in the denominator and misses every latency limit.
struct Samples {
  std::vector<double> values;
  std::size_t failed = 0;

  void ok(double v) { values.push_back(v); }
  void fail() {
    values.push_back(std::numeric_limits<double>::infinity());
    ++failed;
  }
  [[nodiscard]] std::size_t count() const { return values.size(); }
  /// Nearest-rank percentile (a value that was actually measured). 0 when
  /// empty; +inf when the rank lands on a failure.
  [[nodiscard]] double pct(double p) const {
    if (values.empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) - 1;
    return sorted[idx];
  }
  /// True when at least ten samples lie beyond percentile `p`.
  [[nodiscard]] bool tail_ok(double p) const {
    return static_cast<double>(values.size()) * (100.0 - p) / 100.0 >= 10.0;
  }
  [[nodiscard]] double mean() const {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  }
};

/// One span: a named interval on the benchmark clock, its parent span and
/// the request it belongs to.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the trace epoch
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t request = 0;
};

/// In-memory span recorder; written out once, when the run ends. Disabled
/// recorders cost one branch per call.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const { return since(epoch_); }
  /// `t` in seconds since the trace epoch.
  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Records a finished span and returns its index (-1 when disabled).
  std::int64_t add(std::string name, double start, double end,
                   std::int64_t parent, std::uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Sets the end of span `id`, for a parent opened before its children.
  void finish(std::int64_t id, double end) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Writes one JSON object per span; false when the file cannot be opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}\n",
                   i, s.name.c_str(), s.start * 1e6, s.end * 1e6,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Flat JSON object builder for the result and detail lines.
class Json {
 public:
  Json& num(const std::string& key, double v) { return raw(key, number(v)); }
  Json& list(const std::string& key, const std::vector<double>& v) {
    std::string items;
    for (const double x : v) items += (items.empty() ? "" : ", ") + number(x);
    return raw(key, "[" + items + "]");
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string body_;
};

}  // namespace perfbench
