// 2-D pseudo-Voigt peak profile.
//
// This is both the generative model for synthetic Bragg-peak patches
// (substituting the paper's 1.87M real APS diffraction patches — see
// DESIGN.md §4) and the model function that the MIDAS-analog fitter in
// src/labeling regresses. pV = eta * Lorentzian + (1 - eta) * Gaussian over
// an elliptical, rotated footprint.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace fairdms::datagen {

struct PeakParams {
  double center_x = 7.0;    ///< sub-pixel x of the peak center
  double center_y = 7.0;    ///< sub-pixel y of the peak center
  double sigma_major = 2.0; ///< Gaussian width along the major axis (px)
  double sigma_minor = 1.5; ///< width along the minor axis (px)
  double theta = 0.0;       ///< major-axis orientation (radians)
  double eta = 0.5;         ///< Lorentzian fraction in [0, 1]
  double amplitude = 1.0;   ///< peak height above background
  double background = 0.0;  ///< constant baseline
};

/// The profile's formula, in the pieces that pseudo_voigt composes. The
/// labeler's fit (src/labeling) evaluates them separately so that it can
/// keep the Lorentzian and Gaussian terms of a pixel and reuse them; going
/// through these functions keeps its values bit-identical to pseudo_voigt's.

/// Squared footprint radius r² at offset (dx, dy) from the center, given the
/// cosine and sine of the major-axis orientation.
inline double footprint_radius2(double dx, double dy, double ct, double st,
                                double sigma_major, double sigma_minor) {
  const double u = (ct * dx + st * dy) / sigma_major;
  const double v = (-st * dx + ct * dy) / sigma_minor;
  return u * u + v * v;
}

/// Lorentzian term 1/(1+r²) and Gaussian term exp(-r²/2) at radius² r2.
inline double lorentzian(double r2) { return 1.0 / (1.0 + r2); }
inline double gaussian(double r2) { return std::exp(-0.5 * r2); }

/// Profile value from the Lorentzian and Gaussian terms at one point.
inline double profile_value(double background, double amplitude, double eta,
                            double lorentz, double gauss) {
  return background + amplitude * (eta * lorentz + (1.0 - eta) * gauss);
}

/// Profile value at (x, y).
double pseudo_voigt(const PeakParams& p, double x, double y);

/// Renders the profile into a row-major size x size patch (no noise).
void render_peak(const PeakParams& p, std::size_t size, std::span<float> out);

/// Intensity-weighted centroid of a patch — the classical first-moment
/// estimate used to initialize the Voigt fit.
void intensity_centroid(std::span<const float> patch, std::size_t size,
                        double& cx, double& cy);

}  // namespace fairdms::datagen
