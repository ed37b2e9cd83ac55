#include "datagen/pseudo_voigt.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fairdms::datagen {

double pseudo_voigt(const PeakParams& p, double x, double y) {
  const double r2 =
      footprint_radius2(x - p.center_x, y - p.center_y, std::cos(p.theta),
                        std::sin(p.theta), p.sigma_major, p.sigma_minor);
  return profile_value(p.background, p.amplitude, p.eta, lorentzian(r2),
                       gaussian(r2));
}

void render_peak(const PeakParams& p, std::size_t size, std::span<float> out) {
  FAIRDMS_CHECK(out.size() == size * size, "render_peak: bad buffer size");
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      out[y * size + x] = static_cast<float>(
          pseudo_voigt(p, static_cast<double>(x), static_cast<double>(y)));
    }
  }
}

void intensity_centroid(std::span<const float> patch, std::size_t size,
                        double& cx, double& cy) {
  FAIRDMS_CHECK(patch.size() == size * size, "intensity_centroid: bad size");
  double total = 0.0, sx = 0.0, sy = 0.0;
  float min_val = patch[0];
  for (float v : patch) min_val = std::min(min_val, v);
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      const double w = static_cast<double>(patch[y * size + x]) - min_val;
      total += w;
      sx += w * static_cast<double>(x);
      sy += w * static_cast<double>(y);
    }
  }
  if (total <= 0.0) {
    cx = cy = static_cast<double>(size - 1) / 2.0;
    return;
  }
  cx = sx / total;
  cy = sy / total;
}

}  // namespace fairdms::datagen
