// NN stack tests: finite-difference gradient checks for every layer and
// loss, optimizer behaviour, serialization round trips, trainer convergence,
// and MC-dropout properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "nn/reshape.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "nn/uncertainty.hpp"
#include "nn/upsample.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using nn::Mode;
using nn::Tensor;

/// Scalar objective for gradient checking: L = sum(layer(x) * w) with fixed
/// random weights w, so dL/dout = w.
double objective(nn::Layer& layer, const Tensor& x, const Tensor& w) {
  const Tensor y = layer.forward(x, Mode::kTrain);
  return tensor::dot(y, w);
}

/// Verifies layer.backward against central finite differences on inputs and
/// parameters.
void check_gradients(nn::Layer& layer, const Tensor& x, double tol = 2e-2) {
  util::Rng rng(4242);
  const Tensor y0 = layer.forward(x, Mode::kTrain);
  const Tensor w = Tensor::randn(y0.shape(), rng);

  layer.zero_grad();
  layer.forward(x, Mode::kTrain);
  const Tensor gx = layer.backward(w);

  constexpr float kEps = 1e-3f;
  // Input gradients (a sample of positions to keep runtime bounded).
  Tensor xp = x;
  const std::size_t stride = std::max<std::size_t>(1, x.numel() / 64);
  for (std::size_t i = 0; i < x.numel(); i += stride) {
    const float orig = xp[i];
    xp[i] = orig + kEps;
    const double up = objective(layer, xp, w);
    xp[i] = orig - kEps;
    const double down = objective(layer, xp, w);
    xp[i] = orig;
    const double fd = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(gx[i], fd, tol * std::max(1.0, std::fabs(fd)))
        << "input grad at " << i;
  }
  // Parameter gradients.
  layer.zero_grad();
  layer.forward(x, Mode::kTrain);
  layer.backward(w);
  auto params = layer.params();
  auto grads = layer.grads();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& theta = *params[p];
    const Tensor& g = *grads[p];
    const std::size_t pstride = std::max<std::size_t>(1, theta.numel() / 48);
    for (std::size_t i = 0; i < theta.numel(); i += pstride) {
      const float orig = theta[i];
      theta[i] = orig + kEps;
      const double up = objective(layer, x, w);
      theta[i] = orig - kEps;
      const double down = objective(layer, x, w);
      theta[i] = orig;
      const double fd = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(g[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << "param " << p << " grad at " << i;
    }
  }
}

TEST(GradCheck, Linear) {
  util::Rng rng(1);
  nn::Linear layer(6, 4, rng);
  const Tensor x = Tensor::randn({3, 6}, rng);
  check_gradients(layer, x);
}

TEST(GradCheck, Conv2dValid) {
  util::Rng rng(2);
  nn::Conv2d layer(2, 3, 3, rng);
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  check_gradients(layer, x);
}

TEST(GradCheck, Conv2dStridedPadded) {
  util::Rng rng(3);
  nn::Conv2d layer(1, 2, 3, rng, /*stride=*/2, /*padding=*/1);
  const Tensor x = Tensor::randn({2, 1, 7, 7}, rng);
  check_gradients(layer, x);
}

TEST(Conv2d, BackwardGradientsAreBitIdenticalAcrossCalls) {
  // 64 samples span several thread-pool chunks; adding their partial sums
  // in completion order made the gradient bits vary from call to call.
  util::Rng rng(4);
  nn::Conv2d layer(1, 16, 3, rng, /*stride=*/1, /*padding=*/1);
  const Tensor x = Tensor::randn({64, 1, 15, 15}, rng);
  const Tensor grad_out = Tensor::randn(layer.forward(x, Mode::kTrain).shape(),
                                        rng);
  const auto bits = [](const Tensor& t) {
    std::vector<unsigned char> out(t.numel() * sizeof(float));
    std::memcpy(out.data(), t.data(), out.size());
    return out;
  };
  layer.zero_grad();
  (void)layer.backward(grad_out);
  const auto weight_bits = bits(*layer.grads()[0]);
  const auto bias_bits = bits(*layer.grads()[1]);
  for (int call = 1; call < 20; ++call) {
    layer.zero_grad();
    (void)layer.backward(grad_out);
    ASSERT_EQ(bits(*layer.grads()[0]), weight_bits) << "call " << call;
    ASSERT_EQ(bits(*layer.grads()[1]), bias_bits) << "call " << call;
  }
}

// Copies of the product loops nn::Linear and nn::Conv2d ran before both
// called tensor::gemm: matmul's row-by-row i-k-j loop with its zero skip,
// and Conv2d's im2col products. Linear forward and backward and Conv2d
// forward and grad_x must match them bit for bit; Conv2d's weight gradient,
// which summed each sample in double and now sums in float, within a
// tolerance.
namespace pre_gemm {

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  const std::size_t lda = a.dim(1);
  const std::size_t ldb = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval =
          trans_a ? a.data()[kk * lda + i] : a.data()[i * lda + kk];
      if (aval == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aval * (trans_b ? b.data()[j * ldb + kk]
                                   : b.data()[kk * ldb + j]);
      }
    }
  }
  return c;
}

struct ConvShape {
  std::size_t in_c, out_c, kernel, stride, padding, h, w;
  [[nodiscard]] std::size_t oh() const {
    return (h + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t ow() const {
    return (w + 2 * padding - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t rows() const { return in_c * kernel * kernel; }
};

// Visits (column-matrix row, output pixel, image offset) for every tap
// that lands inside the image.
template <typename Fn>
void for_each_tap(const ConvShape& s, Fn&& fn) {
  std::size_t row = 0;
  for (std::size_t c = 0; c < s.in_c; ++c) {
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
        for (std::size_t oy = 0; oy < s.oh(); ++oy) {
          const auto iy = static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
                          static_cast<std::ptrdiff_t>(s.padding);
          for (std::size_t ox = 0; ox < s.ow(); ++ox) {
            const auto ix = static_cast<std::ptrdiff_t>(ox * s.stride + kx) -
                            static_cast<std::ptrdiff_t>(s.padding);
            if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(s.h) ||
                ix >= static_cast<std::ptrdiff_t>(s.w)) {
              continue;
            }
            fn(row, oy * s.ow() + ox,
               c * s.h * s.w + static_cast<std::size_t>(iy) * s.w +
                   static_cast<std::size_t>(ix));
          }
        }
      }
    }
  }
}

std::vector<float> im2col(const ConvShape& s, const float* img) {
  const std::size_t cols = s.oh() * s.ow();
  std::vector<float> out(s.rows() * cols, 0.0f);
  for_each_tap(s, [&](std::size_t r, std::size_t j, std::size_t at) {
    out[r * cols + j] = img[at];
  });
  return out;
}

Tensor conv_forward(const ConvShape& s, const Tensor& x, const Tensor& weight,
                    const Tensor& bias) {
  const std::size_t n = x.dim(0);
  const std::size_t cols = s.oh() * s.ow();
  Tensor y({n, s.out_c, s.oh(), s.ow()});
  for (std::size_t i = 0; i < n; ++i) {
    const auto col = im2col(s, x.data() + i * s.in_c * s.h * s.w);
    for (std::size_t oc = 0; oc < s.out_c; ++oc) {
      float* orow = y.data() + (i * s.out_c + oc) * cols;
      std::fill(orow, orow + cols, bias[oc]);
      for (std::size_t r = 0; r < s.rows(); ++r) {
        const float wv = weight[oc * s.rows() + r];
        if (wv == 0.0f) continue;
        for (std::size_t j = 0; j < cols; ++j) {
          orow[j] += wv * col[r * cols + j];
        }
      }
    }
  }
  return y;
}

struct ConvGrads {
  Tensor grad_x;
  std::vector<double> grad_weight;  // per-sample double sums, added in order
  std::vector<double> mass;         // sum of |term| behind each weight grad
};

ConvGrads conv_backward(const ConvShape& s, const Tensor& x,
                        const Tensor& weight, const Tensor& grad_out) {
  const std::size_t n = x.dim(0);
  const std::size_t cols = s.oh() * s.ow();
  ConvGrads out{Tensor(x.shape()),
                std::vector<double>(s.out_c * s.rows(), 0.0),
                std::vector<double>(s.out_c * s.rows(), 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    const auto col = im2col(s, x.data() + i * s.in_c * s.h * s.w);
    const float* gout = grad_out.data() + i * s.out_c * cols;
    std::vector<float> gcols(s.rows() * cols, 0.0f);
    for (std::size_t oc = 0; oc < s.out_c; ++oc) {
      for (std::size_t r = 0; r < s.rows(); ++r) {
        const float wv = weight[oc * s.rows() + r];
        for (std::size_t j = 0; j < cols; ++j) {
          const double term =
              static_cast<double>(gout[oc * cols + j]) * col[r * cols + j];
          out.grad_weight[oc * s.rows() + r] += term;
          out.mass[oc * s.rows() + r] += std::fabs(term);
          gcols[r * cols + j] += wv * gout[oc * cols + j];
        }
      }
    }
    float* gx = out.grad_x.data() + i * s.in_c * s.h * s.w;
    for_each_tap(s, [&](std::size_t r, std::size_t j, std::size_t at) {
      gx[at] += gcols[r * cols + j];
    });
  }
  return out;
}

}  // namespace pre_gemm

std::vector<std::uint32_t> float_bits(const Tensor& t) {
  std::vector<std::uint32_t> out(t.numel());
  std::memcpy(out.data(), t.data(), t.numel() * sizeof(float));
  return out;
}

/// randn with every third entry an exact zero of alternating sign, the way
/// ReLU outputs and pruned weights carry them.
Tensor randn_with_zeros(std::vector<std::size_t> shape, util::Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (std::size_t i = 0; i < t.numel(); i += 3) t[i] = i % 2 ? -0.0f : 0.0f;
  return t;
}

TEST(Linear, MatchesThePreGemmLoopsBitForBit) {
  // The serving embed's two layers at 16 rows, BYOL's first layer at a
  // batch of 64, and BraggNN's fc1 at a batch of 32 (the last two run on
  // the pool).
  struct Case {
    std::size_t rows, in, out;
  };
  for (const Case& c : {Case{16, 225, 128}, Case{16, 128, 12},
                        Case{64, 225, 128}, Case{32, 1936, 64}}) {
    util::Rng rng(c.rows * 31 + c.in);
    nn::Linear layer(c.in, c.out, rng);
    Tensor& weight = *layer.params()[0];
    Tensor& bias = *layer.params()[1];
    bias = Tensor::randn({c.out}, rng);
    const Tensor x = randn_with_zeros({c.rows, c.in}, rng);
    const Tensor grad_out = randn_with_zeros({c.rows, c.out}, rng);

    Tensor want_y = pre_gemm::matmul(x, weight, false, true);
    for (std::size_t i = 0; i < c.rows; ++i) {
      for (std::size_t j = 0; j < c.out; ++j) want_y.at(i, j) += bias[j];
    }
    EXPECT_EQ(float_bits(layer.forward(x, Mode::kTrain)), float_bits(want_y))
        << c.rows << "x" << c.in << "->" << c.out;

    // Two backward calls: the second adds onto the first's gradients.
    layer.zero_grad();
    Tensor want_gw(weight.shape());
    Tensor want_gb(bias.shape());
    for (int call = 0; call < 2; ++call) {
      const Tensor gx = layer.backward(grad_out);
      want_gw.add_(pre_gemm::matmul(grad_out, x, true, false));
      for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t j = 0; j < c.out; ++j) {
          want_gb[j] += grad_out.at(i, j);
        }
      }
      EXPECT_EQ(float_bits(gx),
                float_bits(pre_gemm::matmul(grad_out, weight, false, false)));
      EXPECT_EQ(float_bits(*layer.grads()[0]), float_bits(want_gw));
      EXPECT_EQ(float_bits(*layer.grads()[1]), float_bits(want_gb));
    }
  }
}

// BraggNN's two convolutions, the CookieNetAE padded shape, and a strided,
// padded, non-square one.
const pre_gemm::ConvShape kConvShapes[] = {
    {1, 8, 3, 1, 0, 15, 15},
    {8, 16, 3, 1, 0, 13, 13},
    {1, 6, 3, 1, 1, 12, 12},
    {3, 5, 3, 2, 1, 9, 7},
};

TEST(Conv2d, ForwardAndInputGradientMatchThePreGemmLoopsBitForBit) {
  for (const auto& s : kConvShapes) {
    util::Rng rng(s.in_c * 100 + s.out_c);
    nn::Conv2d layer(s.in_c, s.out_c, s.kernel, rng, s.stride, s.padding);
    Tensor& weight = *layer.params()[0];
    Tensor& bias = *layer.params()[1];
    weight = randn_with_zeros(weight.shape(), rng);
    bias = Tensor::randn(bias.shape(), rng);
    const Tensor x = randn_with_zeros({6, s.in_c, s.h, s.w}, rng);
    const Tensor y = layer.forward(x, Mode::kTrain);
    EXPECT_EQ(float_bits(y),
              float_bits(pre_gemm::conv_forward(s, x, weight, bias)))
        << s.in_c << "->" << s.out_c << " stride " << s.stride;
    const Tensor grad_out = randn_with_zeros(y.shape(), rng);
    layer.zero_grad();
    EXPECT_EQ(float_bits(layer.backward(grad_out)),
              float_bits(pre_gemm::conv_backward(s, x, weight, grad_out).grad_x))
        << s.in_c << "->" << s.out_c << " stride " << s.stride;
  }
}

TEST(Conv2d, WeightGradientAgreesWithDoubleSums) {
  // A float sum of n terms can stray by up to about n * 2^-24 of its
  // absolute mass and in practice by about sqrt(n) * 2^-24. Every element
  // must be within 1e-6 of its mass: these shapes read at most 4.1e-8, over
  // a batch of 64 with 49-225 pixels per sample.
  constexpr double kRelativeTolerance = 1e-6;
  for (const auto& s : kConvShapes) {
    util::Rng rng(s.in_c * 100 + s.out_c + 1);
    nn::Conv2d layer(s.in_c, s.out_c, s.kernel, rng, s.stride, s.padding);
    const Tensor x = Tensor::randn({64, s.in_c, s.h, s.w}, rng);
    const Tensor grad_out =
        Tensor::randn(layer.forward(x, Mode::kTrain).shape(), rng);
    layer.zero_grad();
    (void)layer.backward(grad_out);
    const auto want =
        pre_gemm::conv_backward(s, x, *layer.params()[0], grad_out);
    const Tensor& got = *layer.grads()[0];
    double worst = 0.0;
    for (std::size_t i = 0; i < got.numel(); ++i) {
      worst = std::max(worst, std::fabs(got[i] - want.grad_weight[i]) /
                                  want.mass[i]);
    }
    EXPECT_LE(worst, kRelativeTolerance)
        << s.in_c << "->" << s.out_c << " stride " << s.stride;
  }
}

TEST(GradCheck, Activations) {
  util::Rng rng(4);
  const Tensor x = Tensor::randn({4, 10}, rng);
  {
    nn::ReLU layer;
    check_gradients(layer, x);
  }
  {
    nn::LeakyReLU layer(0.1f);
    check_gradients(layer, x);
  }
  {
    nn::Sigmoid layer;
    check_gradients(layer, x);
  }
  {
    nn::Tanh layer;
    check_gradients(layer, x);
  }
}

TEST(GradCheck, Pools) {
  util::Rng rng(5);
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  {
    nn::AvgPool2d layer(2);
    check_gradients(layer, x);
  }
  {
    // MaxPool gradients are exact except at argmax ties; random input makes
    // ties measure-zero.
    nn::MaxPool2d layer(2);
    check_gradients(layer, x);
  }
}

TEST(GradCheck, Upsample) {
  util::Rng rng(6);
  nn::Upsample2d layer(2);
  const Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
  check_gradients(layer, x);
}

TEST(GradCheck, SequentialComposite) {
  util::Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(1, 2, 3, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(2 * 4 * 4, 5, rng);
  net.emplace<nn::Tanh>();
  const Tensor x = Tensor::randn({2, 1, 6, 6}, rng);
  check_gradients(net, x);
}

TEST(Loss, MseValueAndGradient) {
  const Tensor pred = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  const Tensor target = Tensor::from_vector({2, 2}, {0, 2, 3, 8});
  const nn::LossResult r = nn::mse_loss(pred, target);
  EXPECT_NEAR(r.value, (1.0 + 0.0 + 0.0 + 16.0) / 4.0, 1e-9);
  EXPECT_NEAR(r.grad[0], 2.0 * 1.0 / 4.0, 1e-6);
  EXPECT_NEAR(r.grad[3], 2.0 * -4.0 / 4.0, 1e-6);
}

TEST(Loss, L1ValueAndGradientSigns) {
  const Tensor pred = Tensor::from_vector({3}, {1, -2, 0});
  const Tensor target = Tensor::from_vector({3}, {0, 0, 0});
  const nn::LossResult r = nn::l1_loss(pred, target);
  EXPECT_NEAR(r.value, 1.0, 1e-9);
  EXPECT_GT(r.grad[0], 0.0f);
  EXPECT_LT(r.grad[1], 0.0f);
  EXPECT_FLOAT_EQ(r.grad[2], 0.0f);
}

TEST(Loss, ByolZeroForAlignedVectors) {
  const Tensor a = Tensor::from_vector({2, 3}, {1, 0, 0, 0, 2, 0});
  const Tensor b = Tensor::from_vector({2, 3}, {3, 0, 0, 0, 5, 0});
  const nn::LossResult r = nn::byol_loss(a, b);
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(Loss, ByolGradientMatchesFiniteDifference) {
  util::Rng rng(8);
  Tensor a = Tensor::randn({3, 4}, rng);
  const Tensor b = Tensor::randn({3, 4}, rng);
  const nn::LossResult r = nn::byol_loss(a, b);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const float orig = a[i];
    a[i] = orig + kEps;
    const double up = nn::byol_loss(a, b).value;
    a[i] = orig - kEps;
    const double down = nn::byol_loss(a, b).value;
    a[i] = orig;
    EXPECT_NEAR(r.grad[i], (up - down) / (2.0 * kEps), 5e-3) << "at " << i;
  }
}

TEST(Loss, NtXentGradientMatchesFiniteDifference) {
  util::Rng rng(9);
  Tensor z = Tensor::randn({6, 5}, rng);  // 3 pairs
  const nn::LossResult r = nn::nt_xent_loss(z, 0.5f);
  EXPECT_GT(r.value, 0.0);
  constexpr float kEps = 1e-3f;
  for (std::size_t i = 0; i < z.numel(); i += 3) {
    const float orig = z[i];
    z[i] = orig + kEps;
    const double up = nn::nt_xent_loss(z, 0.5f).value;
    z[i] = orig - kEps;
    const double down = nn::nt_xent_loss(z, 0.5f).value;
    z[i] = orig;
    EXPECT_NEAR(r.grad[i], (up - down) / (2.0 * kEps), 5e-3) << "at " << i;
  }
}

TEST(Loss, NtXentPrefersAlignedPairs) {
  // Aligned positives (view i == view i+B) score lower than random.
  util::Rng rng(10);
  Tensor aligned({4, 8});
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const auto v = static_cast<float>(rng.gaussian());
      aligned.at(i, j) = v;
      aligned.at(i + 2, j) = v;  // identical positive
    }
  }
  const Tensor random = Tensor::randn({4, 8}, rng);
  EXPECT_LT(nn::nt_xent_loss(aligned).value, nn::nt_xent_loss(random).value);
}

TEST(Optim, SgdAndAdamMinimizeQuadratic) {
  // One Linear layer with zero input bias: loss = |W x - t|^2. Both
  // optimizers should cut the loss by >90%.
  for (const bool use_adam : {false, true}) {
    util::Rng rng(11);
    nn::Sequential net;
    net.emplace<nn::Linear>(4, 4, rng);
    const Tensor x = Tensor::randn({16, 4}, rng);
    const Tensor m = Tensor::randn({4, 4}, rng);
    const Tensor t = tensor::matmul(x, m);  // realizable linear target
    std::unique_ptr<nn::Optimizer> opt;
    if (use_adam) {
      opt = std::make_unique<nn::Adam>(net, 0.05);
    } else {
      opt = std::make_unique<nn::SGD>(net, 0.01, 0.9);
    }
    const double initial = nn::mse_loss(net.forward(x, Mode::kEval), t).value;
    for (int step = 0; step < 200; ++step) {
      opt->zero_grad();
      const Tensor y = net.forward(x, Mode::kTrain);
      const nn::LossResult loss = nn::mse_loss(y, t);
      net.backward(loss.grad);
      opt->step();
    }
    const double final = nn::mse_loss(net.forward(x, Mode::kEval), t).value;
    EXPECT_LT(final, 0.1 * initial) << (use_adam ? "adam" : "sgd");
  }
}

TEST(Optim, WeightDecayShrinksWeights) {
  util::Rng rng(12);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 3, rng);
  const double before = net.params()[0]->norm();
  nn::SGD opt(net, 0.1, 0.0, /*weight_decay=*/0.5);
  const Tensor x({2, 3});  // zero input -> zero task gradient
  const Tensor t({2, 3});
  for (int i = 0; i < 10; ++i) {
    opt.zero_grad();
    const Tensor y = net.forward(x, Mode::kTrain);
    net.backward(nn::mse_loss(y, t).grad);
    opt.step();
  }
  EXPECT_LT(net.params()[0]->norm(), before);
}

TEST(Serialize, RoundTripRestoresExactParameters) {
  util::Rng rng(13);
  nn::Sequential a;
  a.emplace<nn::Conv2d>(1, 2, 3, rng);
  a.emplace<nn::Linear>(8, 4, rng);
  nn::Sequential b;
  b.emplace<nn::Conv2d>(1, 2, 3, rng);
  b.emplace<nn::Linear>(8, 4, rng);

  const auto blob = nn::save_parameters(a);
  nn::load_parameters(b, blob);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->numel(); ++j) {
      EXPECT_EQ((*pa[i])[j], (*pb[i])[j]);
    }
  }
}

TEST(SerializeDeathTest, CorruptBlobAborts) {
  util::Rng rng(14);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 3, rng);
  auto blob = nn::save_parameters(net);
  blob[blob.size() / 2] ^= 0xFF;
  EXPECT_DEATH(nn::load_parameters(net, blob), "checksum");
}

TEST(Serialize, FileRoundTrip) {
  util::Rng rng(15);
  nn::Sequential a;
  a.emplace<nn::Linear>(5, 2, rng);
  const std::string path = ::testing::TempDir() + "/fairdms_model.bin";
  nn::save_parameters_file(a, path);
  nn::Sequential b;
  b.emplace<nn::Linear>(5, 2, rng);
  nn::load_parameters_file(b, path);
  EXPECT_EQ((*a.params()[0])[0], (*b.params()[0])[0]);
}

TEST(Trainer, GatherRowsSelectsCorrectRows) {
  const Tensor t = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> idx{2, 0};
  const Tensor g = nn::gather_rows(t, idx);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
}

TEST(Trainer, FitConvergesOnLinearTask) {
  util::Rng rng(16);
  util::Rng data_rng(17);
  nn::Batchset train;
  train.xs = Tensor::randn({128, 3}, data_rng);
  // Ground truth: y = x * M with a fixed matrix M.
  const Tensor m = Tensor::from_vector({3, 2}, {1, -1, 0.5, 2, -0.25, 0.75});
  train.ys = tensor::matmul(train.xs, m);
  nn::Batchset val;
  val.xs = Tensor::randn({32, 3}, data_rng);
  val.ys = tensor::matmul(val.xs, m);

  nn::Sequential net;
  net.emplace<nn::Linear>(3, 2, rng);
  nn::Adam opt(net, 0.02);
  nn::TrainConfig config;
  config.max_epochs = 200;
  config.batch_size = 32;
  config.target_val_error = 1e-3;
  const nn::TrainResult result = nn::fit(net, opt, train, val, config, rng);
  EXPECT_TRUE(result.reached_target);
  EXPECT_GT(result.convergence_epoch, 0u);
  EXPECT_LE(result.final_val_error, 1e-3);
  EXPECT_EQ(result.curve.size(), result.epochs_run);
}

TEST(Trainer, PatienceStopsEarly) {
  util::Rng rng(18);
  nn::Batchset train;
  train.xs = Tensor::randn({16, 2}, rng);
  train.ys = Tensor::randn({16, 1}, rng);  // pure noise: no progress
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 1, rng);
  nn::SGD opt(net, 0.0);  // lr 0: validation error frozen
  nn::TrainConfig config;
  config.max_epochs = 100;
  config.patience = 3;
  const nn::TrainResult result = nn::fit(net, opt, train, train, config, rng);
  EXPECT_LE(result.epochs_run, 5u);
}

TEST(McDropout, ZeroSpreadWithoutDropout) {
  util::Rng rng(19);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 2, rng);
  const Tensor x = Tensor::randn({8, 4}, rng);
  EXPECT_DOUBLE_EQ(nn::mc_dropout_uncertainty(net, x, 8), 0.0);
}

TEST(McDropout, PositiveSpreadWithDropoutAndEvalUnaffected) {
  util::Rng rng(20);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 8, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dropout>(0.5f, rng);
  net.emplace<nn::Linear>(8, 2, rng);
  const Tensor x = Tensor::randn({8, 4}, rng);
  EXPECT_GT(nn::mc_dropout_uncertainty(net, x, 16), 0.0);
  // kEval forward is deterministic.
  const Tensor y1 = net.forward(x, Mode::kEval);
  const Tensor y2 = net.forward(x, Mode::kEval);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Dropout, InvertedScalingKeepsExpectation) {
  util::Rng rng(21);
  nn::Dropout layer(0.3f, rng);
  const Tensor x = Tensor::full({10000}, 1.0f);
  const Tensor y = layer.forward(x, Mode::kTrain);
  EXPECT_NEAR(y.mean(), 1.0, 0.05);
}

TEST(Sequential, CopyAndEmaParameters) {
  util::Rng rng(22);
  nn::Sequential a, b;
  a.emplace<nn::Linear>(3, 3, rng);
  b.emplace<nn::Linear>(3, 3, rng);
  b.copy_parameters_from(a);
  EXPECT_EQ((*a.params()[0])[0], (*b.params()[0])[0]);

  // EMA with tau=1 copies, tau=0 freezes.
  nn::Sequential c;
  c.emplace<nn::Linear>(3, 3, rng);
  const float before = (*c.params()[0])[0];
  c.ema_update_from(a, 0.0f);
  EXPECT_EQ((*c.params()[0])[0], before);
  c.ema_update_from(a, 1.0f);
  EXPECT_EQ((*c.params()[0])[0], (*a.params()[0])[0]);
}

TEST(Sequential, ParameterCount) {
  util::Rng rng(23);
  nn::Sequential net;
  net.emplace<nn::Linear>(10, 5, rng);  // 50 + 5
  net.emplace<nn::Linear>(5, 2, rng);   // 10 + 2
  EXPECT_EQ(net.parameter_count(), 67u);
}

}  // namespace
}  // namespace fairdms
