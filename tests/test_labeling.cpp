// Tests for the conventional pseudo-Voigt labeler (MIDAS analog): parameter
// recovery across a property sweep, bit-for-bit parity with a reference fit,
// parallel labeling consistency, and the cluster cost-model arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/bragg.hpp"
#include "labeling/voigt_fit.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

// ---------------------------------------------------------------------------
// Parity oracle: the Levenberg–Marquardt fit written the direct way, with
// every Jacobian column of every iteration re-evaluating datagen::pseudo_voigt
// per pixel. fit_peak keeps per-pixel terms and normal equations instead and
// must reproduce this bit for bit. An oracle, rather than pinned hex values,
// keeps the test valid where exp differs in its last bit between libm builds.

constexpr std::size_t kNumParams = 6;

double model_value(const double* p, double x, double y) {
  datagen::PeakParams pk;
  pk.center_x = p[0];
  pk.center_y = p[1];
  pk.sigma_major = std::max(0.3, p[2]);
  pk.sigma_minor = std::max(0.3, p[2]);  // isotropic footprint
  pk.theta = 0.0;
  pk.eta = std::clamp(p[3], 0.0, 1.0);
  pk.amplitude = p[4];
  pk.background = p[5];
  return datagen::pseudo_voigt(pk, x, y);
}

labeling::FitResult reference_fit_peak(std::span<const float> patch,
                                       std::size_t size,
                                       const labeling::FitConfig& config) {
  FAIRDMS_CHECK(patch.size() == size * size, "fit_peak: bad patch size");
  const std::size_t m = patch.size();

  // Initial guess: centroid for position, moments for width/amplitude.
  double p[kNumParams];
  datagen::intensity_centroid(patch, size, p[0], p[1]);
  float lo = patch[0], hi = patch[0];
  for (float v : patch) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  p[2] = static_cast<double>(size) / 6.0;            // sigma
  p[3] = 0.5;                                        // eta
  p[4] = std::max(1e-3, static_cast<double>(hi - lo));  // amplitude
  p[5] = static_cast<double>(lo);                    // background

  std::vector<double> residual(m);
  std::vector<double> jacobian(m * kNumParams);
  double lambda = config.initial_lambda;

  auto compute_residual = [&](const double* params, std::vector<double>& r) {
    double ss = 0.0;
    for (std::size_t y = 0; y < size; ++y) {
      for (std::size_t x = 0; x < size; ++x) {
        const std::size_t i = y * size + x;
        r[i] = model_value(params, static_cast<double>(x),
                           static_cast<double>(y)) -
               static_cast<double>(patch[i]);
        ss += r[i] * r[i];
      }
    }
    return ss / static_cast<double>(m);
  };

  labeling::FitResult result;
  double current_ss = compute_residual(p, residual);

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Finite-difference Jacobian (like MIDAS's generic minimizer; this is
    // what makes conventional labeling expensive: 6 extra model evaluations
    // per pixel per iteration).
    for (std::size_t k = 0; k < kNumParams; ++k) {
      const double h = std::max(1e-6, 1e-4 * std::fabs(p[k]));
      double pk[kNumParams];
      std::copy(p, p + kNumParams, pk);
      pk[k] += h;
      for (std::size_t y = 0; y < size; ++y) {
        for (std::size_t x = 0; x < size; ++x) {
          const std::size_t i = y * size + x;
          const double f1 = model_value(pk, static_cast<double>(x),
                                        static_cast<double>(y));
          const double f0 = residual[i] + static_cast<double>(patch[i]);
          jacobian[i * kNumParams + k] = (f1 - f0) / h;
        }
      }
    }

    // Normal equations with LM damping: (J^T J + lambda I) dp = -J^T r
    double jtj[kNumParams][kNumParams] = {};
    double jtr[kNumParams] = {};
    for (std::size_t i = 0; i < m; ++i) {
      const double* jrow = jacobian.data() + i * kNumParams;
      for (std::size_t a = 0; a < kNumParams; ++a) {
        jtr[a] += jrow[a] * residual[i];
        for (std::size_t b = a; b < kNumParams; ++b) {
          jtj[a][b] += jrow[a] * jrow[b];
        }
      }
    }
    for (std::size_t a = 0; a < kNumParams; ++a) {
      for (std::size_t b = 0; b < a; ++b) jtj[a][b] = jtj[b][a];
      jtj[a][a] *= 1.0 + lambda;
    }

    // Gaussian elimination with partial pivoting.
    double aug[kNumParams][kNumParams + 1];
    for (std::size_t a = 0; a < kNumParams; ++a) {
      for (std::size_t b = 0; b < kNumParams; ++b) aug[a][b] = jtj[a][b];
      aug[a][kNumParams] = -jtr[a];
    }
    bool singular = false;
    for (std::size_t col = 0; col < kNumParams; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < kNumParams; ++r) {
        if (std::fabs(aug[r][col]) > std::fabs(aug[pivot][col])) pivot = r;
      }
      if (std::fabs(aug[pivot][col]) < 1e-14) {
        singular = true;
        break;
      }
      if (pivot != col) std::swap(aug[pivot], aug[col]);
      for (std::size_t r = 0; r < kNumParams; ++r) {
        if (r == col) continue;
        const double f = aug[r][col] / aug[col][col];
        for (std::size_t b = col; b <= kNumParams; ++b) {
          aug[r][b] -= f * aug[col][b];
        }
      }
    }
    if (singular) {
      lambda *= 10.0;
      continue;
    }

    double dp[kNumParams];
    double step_norm = 0.0;
    for (std::size_t a = 0; a < kNumParams; ++a) {
      dp[a] = aug[a][kNumParams] / aug[a][a];
      step_norm += dp[a] * dp[a];
    }

    double p_try[kNumParams];
    for (std::size_t a = 0; a < kNumParams; ++a) p_try[a] = p[a] + dp[a];
    std::vector<double> r_try(m);
    const double try_ss = compute_residual(p_try, r_try);

    if (try_ss < current_ss) {
      std::copy(p_try, p_try + kNumParams, p);
      residual.swap(r_try);
      current_ss = try_ss;
      lambda = std::max(1e-9, lambda * 0.3);
      if (std::sqrt(step_norm) < config.tolerance) {
        result.converged = true;
        break;
      }
    } else {
      lambda *= 10.0;
      if (lambda > 1e8) break;  // stuck
    }
  }

  result.center_x = p[0];
  result.center_y = p[1];
  result.sigma = p[2];
  result.eta = std::clamp(p[3], 0.0, 1.0);
  result.amplitude = p[4];
  result.background = p[5];
  result.residual = current_ss;
  return result;
}

/// Same bit pattern; any two NaNs count as equal.
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Names the first FitResult field that differs; empty when none does.
std::string first_difference(const labeling::FitResult& got,
                             const labeling::FitResult& want) {
  const struct {
    const char* name;
    double got, want;
  } fields[] = {{"center_x", got.center_x, want.center_x},
                {"center_y", got.center_y, want.center_y},
                {"sigma", got.sigma, want.sigma},
                {"eta", got.eta, want.eta},
                {"amplitude", got.amplitude, want.amplitude},
                {"background", got.background, want.background},
                {"residual", got.residual, want.residual}};
  std::ostringstream os;
  os.precision(17);
  for (const auto& f : fields) {
    if (!same_bits(f.got, f.want)) {
      os << f.name << " " << f.got << " != " << f.want;
      return os.str();
    }
  }
  if (got.iterations != want.iterations) {
    os << "iterations " << got.iterations << " != " << want.iterations;
  } else if (got.converged != want.converged) {
    os << "converged " << got.converged << " != " << want.converged;
  }
  return os.str();
}

/// Fits every size x size patch in `pixels` with fit_peak and the oracle and
/// expects identical results.
void expect_matches_oracle(std::span<const float> pixels, std::size_t size,
                           const labeling::FitConfig& config,
                           const std::string& what) {
  const std::size_t area = size * size;
  ASSERT_EQ(pixels.size() % area, 0u);
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < pixels.size() / area; ++i) {
    const auto patch = pixels.subspan(i * area, area);
    const std::string diff =
        first_difference(labeling::fit_peak(patch, size, config),
                         reference_fit_peak(patch, size, config));
    if (!diff.empty() && mismatches++ == 0) {
      first = "patch " + std::to_string(i) + ": " + diff;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << "; first mismatch at " << first;
}

/// perfbench's timeline (16 scans, deformation at scan 8): 128 patches from
/// each of scans 4..11, so half come from each side of the deformation.
const std::vector<float>& timeline_patches() {
  static const std::vector<float> pixels = [] {
    datagen::HedmTimelineConfig config;
    config.n_scans = 16;
    config.drift_per_scan = 0.004;
    config.deformation_scans = {8};
    config.deformation_jump = 0.5;
    const datagen::HedmTimeline timeline(config);
    std::vector<float> out;
    for (std::size_t scan = 4; scan < 12; ++scan) {
      const auto part = timeline.dataset_at(scan, 128, 2207 + scan);
      out.insert(out.end(), part.xs.data(), part.xs.data() + part.xs.numel());
    }
    return out;
  }();
  return pixels;
}

/// One noisy isotropic peak of the VoigtRecovery grid.
std::vector<float> recovery_patch(double offset, double sigma, double eta) {
  datagen::PeakParams p;
  p.center_x = 7.0 + offset;
  p.center_y = 7.0 - offset * 0.6;
  p.sigma_major = sigma;
  p.sigma_minor = sigma;
  p.eta = eta;
  p.amplitude = 1.0;
  std::vector<float> patch(15 * 15);
  datagen::render_peak(p, 15, patch);
  util::Rng rng(1234);
  for (float& v : patch) {
    v += static_cast<float>(rng.gaussian(0.0, 0.02));
  }
  return patch;
}

constexpr double kGridOffsets[] = {-2.0, -0.7, 0.0, 1.3, 2.4};
constexpr double kGridSigmas[] = {1.4, 2.0, 2.8};
constexpr double kGridEtas[] = {0.1, 0.5, 0.9};

/// Every VoigtRecovery grid patch, back to back.
std::vector<float> grid_patches() {
  std::vector<float> out;
  for (double offset : kGridOffsets) {
    for (double sigma : kGridSigmas) {
      for (double eta : kGridEtas) {
        const auto patch = recovery_patch(offset, sigma, eta);
        out.insert(out.end(), patch.begin(), patch.end());
      }
    }
  }
  return out;
}

/// Flat, all-zero, one-NaN-pixel and 1e30-scaled patches.
std::vector<float> degenerate_patches() {
  std::vector<float> out(15 * 15, 0.2f);
  out.resize(2 * 15 * 15, 0.0f);
  auto with_nan = recovery_patch(0.0, 2.0, 0.5);
  with_nan[37] = std::numeric_limits<float>::quiet_NaN();
  out.insert(out.end(), with_nan.begin(), with_nan.end());
  const auto& timeline = timeline_patches();
  for (std::size_t i = 0; i < 4 * 225; ++i) out.push_back(timeline[i] * 1e30f);
  return out;
}

TEST(VoigtFit, RecoversCleanPeakCenterExactly) {
  datagen::PeakParams p;
  p.center_x = 8.27;
  p.center_y = 6.43;
  p.sigma_major = 2.0;
  p.sigma_minor = 2.0;  // fitter assumes isotropic; match it here
  p.eta = 0.4;
  p.amplitude = 1.3;
  p.background = 0.05;
  std::vector<float> patch(15 * 15);
  datagen::render_peak(p, 15, patch);
  const auto fit = labeling::fit_peak(patch, 15);
  EXPECT_NEAR(fit.center_x, p.center_x, 0.02);
  EXPECT_NEAR(fit.center_y, p.center_y, 0.02);
  EXPECT_NEAR(fit.eta, p.eta, 0.1);
  EXPECT_NEAR(fit.amplitude, p.amplitude, 0.1);
  EXPECT_LT(fit.residual, 1e-5);
}

// Property sweep: center recovery within 0.25px across positions, widths,
// mixing ratios, and noise levels (sub-pixel accuracy is the whole point of
// pseudo-Voigt labeling).
class VoigtRecovery
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(VoigtRecovery, CenterWithinQuarterPixel) {
  const auto [offset, sigma, eta] = GetParam();
  const auto fit = labeling::fit_peak(recovery_patch(offset, sigma, eta), 15);
  EXPECT_NEAR(fit.center_x, 7.0 + offset, 0.25);
  EXPECT_NEAR(fit.center_y, 7.0 - offset * 0.6, 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, VoigtRecovery,
    ::testing::Combine(::testing::ValuesIn(kGridOffsets),
                       ::testing::ValuesIn(kGridSigmas),
                       ::testing::ValuesIn(kGridEtas)));

TEST(VoigtFitOracle, TimelinePatchesOnBothSidesOfTheDeformation) {
  const auto& pixels = timeline_patches();
  ASSERT_EQ(pixels.size(), 1024u * 225u);
  expect_matches_oracle(pixels, 15, {}, "timeline");
}

TEST(VoigtFitOracle, RecoveryGridPatches) {
  expect_matches_oracle(grid_patches(), 15, {}, "recovery grid");
}

TEST(VoigtFitOracle, FlatZeroNanAndHugePatches) {
  expect_matches_oracle(degenerate_patches(), 15, {}, "degenerate");
}

TEST(VoigtFitOracle, NonDefaultConfigs) {
  std::vector<float> pixels = grid_patches();
  const auto degenerate = degenerate_patches();
  pixels.insert(pixels.end(), degenerate.begin(), degenerate.end());
  const std::span<const float> timeline(timeline_patches());
  // 64 patches from each side of the deformation.
  for (std::size_t offset : {std::size_t{0}, timeline.size() / 2}) {
    const auto part = timeline.subspan(offset, 64 * 225);
    pixels.insert(pixels.end(), part.begin(), part.end());
  }
  labeling::FitConfig one_step;
  one_step.max_iterations = 1;
  labeling::FitConfig five_steps;
  five_steps.max_iterations = 5;
  labeling::FitConfig no_tolerance;
  no_tolerance.tolerance = 0.0;
  labeling::FitConfig heavy_damping;
  heavy_damping.initial_lambda = 1e3;
  expect_matches_oracle(pixels, 15, one_step, "max_iterations 1");
  expect_matches_oracle(pixels, 15, five_steps, "max_iterations 5");
  expect_matches_oracle(pixels, 15, no_tolerance, "tolerance 0");
  expect_matches_oracle(pixels, 15, heavy_damping, "initial_lambda 1e3");
}

TEST(VoigtFit, FlatPatchDoesNotExplode) {
  std::vector<float> patch(15 * 15, 0.2f);
  const auto fit = labeling::fit_peak(patch, 15);
  // Center defaults near the middle; residual stays tiny.
  EXPECT_GT(fit.center_x, 3.0);
  EXPECT_LT(fit.center_x, 12.0);
  EXPECT_LT(fit.residual, 1e-4);
}

TEST(LabelPatches, MatchesGroundTruthOnCleanBatch) {
  util::Rng rng(7);
  datagen::BraggRegime regime;
  regime.noise_sd = 0.01;
  const auto data = datagen::make_bragg_batchset(regime, {}, 24, rng);
  double elapsed = 0.0;
  const auto labels = labeling::label_patches(data.xs, {}, &elapsed);
  ASSERT_EQ(labels.shape(), data.ys.shape());
  EXPECT_GT(elapsed, 0.0);
  for (std::size_t i = 0; i < 24; ++i) {
    const double err = datagen::bragg_pixel_error(labels, data.ys, 15, i);
    EXPECT_LT(err, 0.5) << "sample " << i;
  }
}

TEST(LabelPatches, MatchesOracleLabelsBitForBit) {
  // 64 rows from after the deformation, labeled in parallel.
  const std::span<const float> pixels(timeline_patches());
  const std::size_t rows = 64;
  nn::Tensor xs({rows, 1, 15, 15});
  std::copy_n(pixels.data() + pixels.size() / 2, xs.numel(), xs.data());
  const nn::Tensor labels = labeling::label_patches(xs);
  ASSERT_EQ(labels.numel(), rows * 2);
  const double mid = 7.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto fit = reference_fit_peak(
        {xs.data() + i * 225, 225}, 15, labeling::FitConfig{});
    const float want[2] = {static_cast<float>((fit.center_x - mid) / 15.0),
                           static_cast<float>((fit.center_y - mid) / 15.0)};
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(labels.data()[i * 2 + c]),
                std::bit_cast<std::uint32_t>(want[c]))
          << "row " << i << " column " << c;
    }
  }
}

TEST(ClusterCostModel, PerfectScalingWithoutSerialFraction) {
  labeling::ClusterCostModel model;
  model.per_patch_seconds = 0.01;
  model.serial_fraction = 0.0;
  EXPECT_NEAR(model.project_seconds(1000, 1), 10.0, 1e-9);
  EXPECT_NEAR(model.project_seconds(1000, 10), 1.0, 1e-9);
}

TEST(ClusterCostModel, AmdahlLimitsSpeedup) {
  labeling::ClusterCostModel model;
  model.per_patch_seconds = 0.01;
  model.serial_fraction = 0.01;
  const double t80 = model.project_seconds(10000, 80);
  const double t1440 = model.project_seconds(10000, 1440);
  EXPECT_LT(t1440, t80);
  // Speedup of 1440 over 80 cores must be well below the 18x core ratio.
  EXPECT_LT(t80 / t1440, 18.0);
  // And never below the serial floor.
  EXPECT_GT(t1440, 0.01 * 10000 * 0.01);
}

}  // namespace
}  // namespace fairdms
