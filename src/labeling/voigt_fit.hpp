// Conventional (physics-based) Bragg-peak labeling: least-squares fit of a
// 2-D pseudo-Voigt profile to a patch. This is the MIDAS analog — the
// compute-intensive baseline that fairDS's label reuse is measured against
// (paper Figs. 9 and 15).
//
// The fit runs Levenberg–Marquardt-damped Gauss–Newton over
// (center_x, center_y, sigma, eta, amplitude, background) with an isotropic
// footprint (the label of interest is only the center of mass; widths are
// nuisance parameters, matching how MIDAS reports peak positions).
//
// Its forward-difference Jacobian costs three exp per pixel: only the
// center and sigma columns move the footprint, and the other three reuse
// the Lorentzian/Gaussian terms kept from the residual pass. A Jacobian is
// built only after an accepted step. The iterates, and so the labels, are
// bit-identical to evaluating datagen::pseudo_voigt afresh for every column
// of every iteration.
#pragma once

#include <span>
#include <vector>

#include "datagen/pseudo_voigt.hpp"
#include "nn/trainer.hpp"

namespace fairdms::labeling {

struct FitResult {
  double center_x = 0.0;
  double center_y = 0.0;
  double sigma = 0.0;
  double eta = 0.0;
  double amplitude = 0.0;
  double background = 0.0;
  double residual = 0.0;  ///< final mean squared residual
  std::size_t iterations = 0;
  bool converged = false;
};

struct FitConfig {
  std::size_t max_iterations = 60;
  double tolerance = 1e-7;     ///< stop when step norm falls below this
  double initial_lambda = 1e-3;
};

/// Fits one size x size patch. Initial center guess is the intensity
/// centroid.
FitResult fit_peak(std::span<const float> patch, std::size_t size,
                   const FitConfig& config = {});

/// Labels every row of xs ([N, 1, S, S]) in parallel on the global thread
/// pool; returns [N, 2] labels in the same normalized units as
/// datagen::make_bragg_batchset. `elapsed_seconds` (optional) receives wall
/// time.
nn::Tensor label_patches(const nn::Tensor& xs, const FitConfig& config = {},
                         double* elapsed_seconds = nullptr);

/// Projects conventional-labeling wall time onto a machine with `cores`
/// cores (the paper's Voigt-80 workstation and Voigt-1440 cluster), given
/// the locally measured per-patch cost. Labeling is embarrassingly parallel;
/// parallel efficiency decays with scale per Amdahl-style serial fraction
/// (task dispatch, result gather, file staging in MIDAS).
struct ClusterCostModel {
  double per_patch_seconds = 0.0;  ///< measured on this machine
  double serial_fraction = 0.004;  ///< non-parallelizable share of the job
  /// Wall seconds to label n_patches on `cores` cores.
  [[nodiscard]] double project_seconds(std::size_t n_patches,
                                       std::size_t cores) const;
};

}  // namespace fairdms::labeling
