// Frame-level conventional labeling: the full MIDAS-style pipeline that
// Fig. 15's Voigt-80 / Voigt-1440 arms pay for. For each detector frame:
// threshold -> connected-component peak search -> per-peak window extraction
// -> pseudo-Voigt fit. Patch-level reuse (fairDS) skips all of it.
#pragma once

#include <vector>

#include "datagen/frame.hpp"
#include "labeling/voigt_fit.hpp"

namespace fairdms::labeling {

struct FramePeak {
  double center_x = 0.0;  ///< frame coordinates
  double center_y = 0.0;
  FitResult fit;          ///< window-local fit detail
};

struct FrameLabelConfig {
  float threshold = 0.12f;       ///< detection threshold above background
  std::size_t min_pixels = 4;    ///< reject specks
  std::size_t window = 15;       ///< fit window side (the BraggNN patch size)
  FitConfig fit;
};

/// Labels every detected peak in a frame. Single-threaded by design: the
/// unit of parallelism in MIDAS is the frame, not the peak.
std::vector<FramePeak> label_frame(const std::vector<float>& pixels,
                                   std::size_t size,
                                   const FrameLabelConfig& config = {});

/// Measures the wall-clock cost of labeling one frame (rendering excluded):
/// the median over `sample_frames` real frames run through label_frame, so
/// a frame the host happens to slow down does not move the result.
double measure_frame_cost(const datagen::FrameConfig& frame_config,
                          const datagen::BraggRegime& regime,
                          std::size_t sample_frames, std::uint64_t seed,
                          const FrameLabelConfig& config = {});

}  // namespace fairdms::labeling
