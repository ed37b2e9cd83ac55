#include "labeling/frame_label.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace fairdms::labeling {

std::vector<FramePeak> label_frame(const std::vector<float>& pixels,
                                   std::size_t size,
                                   const FrameLabelConfig& config) {
  FAIRDMS_CHECK(pixels.size() == size * size, "label_frame: bad frame size");
  const std::size_t w = config.window;
  FAIRDMS_CHECK(w % 2 == 1, "fit window must be odd");
  const std::size_t half = w / 2;

  // Connected components over the thresholded mask (4-connectivity BFS).
  std::vector<std::uint8_t> visited(pixels.size(), 0);
  std::vector<FramePeak> peaks;
  std::vector<float> window(w * w);

  for (std::size_t start = 0; start < pixels.size(); ++start) {
    if (visited[start] || pixels[start] < config.threshold) continue;
    // Flood fill this blob, tracking its maximum pixel.
    std::queue<std::size_t> frontier;
    frontier.push(start);
    visited[start] = 1;
    std::size_t count = 0;
    std::size_t peak_idx = start;
    float peak_val = pixels[start];
    while (!frontier.empty()) {
      const std::size_t idx = frontier.front();
      frontier.pop();
      ++count;
      if (pixels[idx] > peak_val) {
        peak_val = pixels[idx];
        peak_idx = idx;
      }
      const std::size_t y = idx / size;
      const std::size_t x = idx % size;
      const std::size_t neighbors[4] = {
          y > 0 ? idx - size : idx, y + 1 < size ? idx + size : idx,
          x > 0 ? idx - 1 : idx, x + 1 < size ? idx + 1 : idx};
      for (std::size_t n : neighbors) {
        if (n != idx && !visited[n] && pixels[n] >= config.threshold) {
          visited[n] = 1;
          frontier.push(n);
        }
      }
    }
    if (count < config.min_pixels) continue;

    // Extract a w x w window centered on the blob maximum (clamped to the
    // frame) and fit the profile inside it.
    const std::size_t py = peak_idx / size;
    const std::size_t px = peak_idx % size;
    const std::size_t oy = std::min(
        std::max(py, half) - half, size - w);
    const std::size_t ox = std::min(
        std::max(px, half) - half, size - w);
    for (std::size_t yy = 0; yy < w; ++yy) {
      for (std::size_t xx = 0; xx < w; ++xx) {
        window[yy * w + xx] = pixels[(oy + yy) * size + (ox + xx)];
      }
    }
    FramePeak peak;
    peak.fit = fit_peak(window, w, config.fit);
    peak.center_x = static_cast<double>(ox) + peak.fit.center_x;
    peak.center_y = static_cast<double>(oy) + peak.fit.center_y;
    peaks.push_back(peak);
  }
  return peaks;
}

double measure_frame_cost(const datagen::FrameConfig& frame_config,
                          const datagen::BraggRegime& regime,
                          std::size_t sample_frames, std::uint64_t seed,
                          const FrameLabelConfig& config) {
  FAIRDMS_CHECK(sample_frames > 0, "measure_frame_cost: no frames");
  util::Rng rng(seed);
  std::vector<double> seconds;
  seconds.reserve(sample_frames);
  for (std::size_t f = 0; f < sample_frames; ++f) {
    const datagen::Frame frame =
        datagen::render_frame(frame_config, regime, rng);
    util::WallTimer timer;
    const auto peaks = label_frame(frame.pixels, frame_config.size, config);
    seconds.push_back(timer.seconds());
    FAIRDMS_CHECK(!peaks.empty(), "peak finder found nothing — check "
                                  "threshold/regime");
  }
  std::sort(seconds.begin(), seconds.end());
  const std::size_t mid = seconds.size() / 2;
  return seconds.size() % 2 == 1 ? seconds[mid]
                                 : 0.5 * (seconds[mid - 1] + seconds[mid]);
}

}  // namespace fairdms::labeling
