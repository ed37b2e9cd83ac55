// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the rows/series of one paper figure. Dataset and
// model sizes are scaled for a CPU-only box (all knobs are constants at the
// top of each bench and recorded in EXPERIMENTS.md); the claims under test
// are *shapes and ratios*, not absolute seconds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/bragg.hpp"

namespace fairdms::bench {

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

inline void print_footer(const std::string& takeaway) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("takeaway: %s\n\n", takeaway.c_str());
}

/// Column-formatted row printing: print_row("a", 1.5, 2) etc.
inline void print_cell(const char* v) { std::printf("%16s", v); }
inline void print_cell(const std::string& v) { std::printf("%16s", v.c_str()); }
inline void print_cell(double v) { std::printf("%16.6g", v); }
inline void print_cell(float v) { std::printf("%16.6g", static_cast<double>(v)); }
inline void print_cell(int v) { std::printf("%16d", v); }
inline void print_cell(std::size_t v) {
  std::printf("%16zu", v);
}

template <typename... Cells>
void print_row(const Cells&... cells) {
  (print_cell(cells), ...);
  std::printf("\n");
}

/// How many times a bench times one table cell; the cell reports the
/// median, so a single descheduled run on a shared host cannot set it.
inline constexpr std::size_t kTimedRepeats = 5;

/// Median of repeated timings (the mean of the middle two for an even
/// count; 0 for none).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Keeps a timed result observably alive so the compiler cannot drop the
/// measured computation (and [[nodiscard]] stays satisfied).
template <typename T>
void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Standard HEDM timeline used across the Bragg figures: smooth drift with
/// one deformation event (the paper's "sample deformation around scan 444",
/// rescaled onto a short timeline).
inline datagen::HedmTimeline standard_timeline(std::size_t n_scans,
                                               std::size_t deformation_scan) {
  datagen::HedmTimelineConfig config;
  config.n_scans = n_scans;
  config.drift_per_scan = 0.004;
  config.deformation_scans = {deformation_scan};
  config.deformation_jump = 0.5;
  return datagen::HedmTimeline(config);
}

/// First `n` rows of a [N, 1, S, S] batch as their own tensor (all of
/// `xs` when it has no more than `n`).
inline nn::Tensor head_rows(const nn::Tensor& xs, std::size_t n) {
  if (n >= xs.dim(0)) return xs;
  const std::size_t row = xs.numel() / xs.dim(0);
  nn::Tensor out({n, xs.dim(1), xs.dim(2), xs.dim(3)});
  std::copy_n(xs.data(), n * row, out.data());
  return out;
}

}  // namespace fairdms::bench
