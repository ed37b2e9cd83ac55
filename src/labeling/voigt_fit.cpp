#include "labeling/voigt_fit.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fairdms::labeling {

namespace {

constexpr std::size_t kNumParams = 6;

/// The isotropic profile at one parameter vector, with sigma and eta clamped
/// once here rather than once per pixel. It evaluates datagen::pseudo_voigt's
/// pieces with theta = 0, so every value matches pseudo_voigt bit for bit.
struct Profile {
  double center_x = 0.0, center_y = 0.0, sigma = 0.0, eta = 0.0,
         amplitude = 0.0, background = 0.0;

  Profile() = default;
  explicit Profile(const double* p)
      : center_x(p[0]),
        center_y(p[1]),
        sigma(std::max(0.3, p[2])),
        eta(std::clamp(p[3], 0.0, 1.0)),
        amplitude(p[4]),
        background(p[5]) {}

  /// r² at (x, y). cos 0 and sin 0 stay operands so that non-finite
  /// parameters propagate exactly as in pseudo_voigt.
  [[nodiscard]] double radius2(double x, double y) const {
    return datagen::footprint_radius2(x - center_x, y - center_y, 1.0, 0.0,
                                      sigma, sigma);
  }

  [[nodiscard]] double value(double lorentz, double gauss) const {
    return datagen::profile_value(background, amplitude, eta, lorentz, gauss);
  }
};

/// Per-pixel state at one parameter vector: the residual and the Lorentzian
/// and Gaussian terms it was computed from.
struct PixelTerms {
  double* residual;
  double* lorentz;
  double* gauss;
};

}  // namespace

FitResult fit_peak(std::span<const float> patch, std::size_t size,
                   const FitConfig& config) {
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

  // Terms at p and at the trial step; an accepted step swaps the two.
  std::vector<double> buffers(6 * m);
  PixelTerms current{buffers.data(), buffers.data() + m,
                     buffers.data() + 2 * m};
  PixelTerms trial{buffers.data() + 3 * m, buffers.data() + 4 * m,
                   buffers.data() + 5 * m};
  double lambda = config.initial_lambda;

  auto compute_residual = [&](const double* params, const PixelTerms& t) {
    const Profile q(params);
    double ss = 0.0;
    for (std::size_t y = 0; y < size; ++y) {
      for (std::size_t x = 0; x < size; ++x) {
        const std::size_t i = y * size + x;
        const double r2 =
            q.radius2(static_cast<double>(x), static_cast<double>(y));
        t.gauss[i] = datagen::gaussian(r2);
        t.lorentz[i] = datagen::lorentzian(r2);
        t.residual[i] =
            q.value(t.lorentz[i], t.gauss[i]) - static_cast<double>(patch[i]);
        ss += t.residual[i] * t.residual[i];
      }
    }
    return ss / static_cast<double>(m);
  };

  FitResult result;
  double current_ss = compute_residual(p, current);

  // Undamped J^T J and J^T r at p. They depend only on p and its residual,
  // so they are rebuilt only after an accepted step.
  double jtj[kNumParams][kNumParams] = {};
  double jtr[kNumParams] = {};
  bool normal_equations_stale = true;

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (normal_equations_stale) {
      normal_equations_stale = false;
      // Forward-difference Jacobian (like MIDAS's generic minimizer). A step
      // in eta, amplitude or background leaves r² unchanged, so those columns
      // reuse the kept Lorentzian/Gaussian terms; only the center and sigma
      // columns evaluate the profile afresh, 3 exp per pixel per Jacobian.
      // Each column value is the one datagen::pseudo_voigt gives at the
      // shifted parameters, bit for bit, so the iterates are unchanged.
      double h[kNumParams];
      Profile shifted[kNumParams];
      for (std::size_t k = 0; k < kNumParams; ++k) {
        h[k] = std::max(1e-6, 1e-4 * std::fabs(p[k]));
        double pk[kNumParams];
        std::copy(p, p + kNumParams, pk);
        pk[k] += h[k];
        shifted[k] = Profile(pk);
      }
      std::fill_n(&jtj[0][0], kNumParams * kNumParams, 0.0);
      std::fill_n(jtr, kNumParams, 0.0);
      for (std::size_t y = 0; y < size; ++y) {
        for (std::size_t x = 0; x < size; ++x) {
          const std::size_t i = y * size + x;
          const double f0 =
              current.residual[i] + static_cast<double>(patch[i]);
          double jrow[kNumParams];
          for (std::size_t k = 0; k < 3; ++k) {
            const double r2 = shifted[k].radius2(static_cast<double>(x),
                                                 static_cast<double>(y));
            const double f1 = shifted[k].value(datagen::lorentzian(r2),
                                               datagen::gaussian(r2));
            jrow[k] = (f1 - f0) / h[k];
          }
          for (std::size_t k = 3; k < kNumParams; ++k) {
            const double f1 =
                shifted[k].value(current.lorentz[i], current.gauss[i]);
            jrow[k] = (f1 - f0) / h[k];
          }
          for (std::size_t a = 0; a < kNumParams; ++a) {
            jtr[a] += jrow[a] * current.residual[i];
            for (std::size_t b = a; b < kNumParams; ++b) {
              jtj[a][b] += jrow[a] * jrow[b];
            }
          }
        }
      }
      for (std::size_t a = 0; a < kNumParams; ++a) {
        for (std::size_t b = 0; b < a; ++b) jtj[a][b] = jtj[b][a];
      }
    }

    // Normal equations with LM damping,
    // (J^T J + lambda diag(J^T J)) dp = -J^T r, solved by Gaussian
    // elimination with partial pivoting.
    double aug[kNumParams][kNumParams + 1];
    for (std::size_t a = 0; a < kNumParams; ++a) {
      for (std::size_t b = 0; b < kNumParams; ++b) aug[a][b] = jtj[a][b];
      aug[a][a] *= 1.0 + lambda;
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
    const double try_ss = compute_residual(p_try, trial);

    if (try_ss < current_ss) {
      std::copy(p_try, p_try + kNumParams, p);
      std::swap(current, trial);
      normal_equations_stale = true;
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

nn::Tensor label_patches(const nn::Tensor& xs, const FitConfig& config,
                         double* elapsed_seconds) {
  FAIRDMS_CHECK(xs.rank() == 4 && xs.dim(1) == 1,
                "label_patches expects [N, 1, S, S], got ", xs.shape_str());
  const std::size_t n = xs.dim(0);
  const std::size_t s = xs.dim(2);
  FAIRDMS_CHECK(xs.dim(3) == s, "label_patches expects square patches");
  const double mid = static_cast<double>(s - 1) / 2.0;

  nn::Tensor labels({n, 2});
  const float* px = xs.data();
  float* py = labels.data();
  util::WallTimer timer;
  util::ThreadPool::global().parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const FitResult fit =
              fit_peak({px + i * s * s, s * s}, s, config);
          py[i * 2 + 0] =
              static_cast<float>((fit.center_x - mid) / static_cast<double>(s));
          py[i * 2 + 1] =
              static_cast<float>((fit.center_y - mid) / static_cast<double>(s));
        }
      },
      /*min_grain=*/1);
  if (elapsed_seconds != nullptr) *elapsed_seconds = timer.seconds();
  return labels;
}

double ClusterCostModel::project_seconds(std::size_t n_patches,
                                         std::size_t cores) const {
  FAIRDMS_CHECK(cores > 0, "project_seconds: zero cores");
  const double total_cpu =
      per_patch_seconds * static_cast<double>(n_patches);
  // Amdahl: serial_fraction of the job cannot use more than one core.
  const double parallel = (1.0 - serial_fraction) * total_cpu /
                          static_cast<double>(cores);
  const double serial = serial_fraction * total_cpu;
  return serial + parallel;
}

}  // namespace fairdms::labeling
