// Microbenchmark: BraggNN inference vs conventional pseudo-Voigt fitting,
// per peak — the paper's §III-A claim that BraggNN localizes a center of
// mass ~200x faster than pseudo-Voigt fitting. Also k-means assignment and
// the GEMM kernel, the two hot loops behind fairDS queries: square
// products, and the shapes the serving embed, BYOL training, BraggNN's fc1
// and its second convolution hand the kernel.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.hpp"
#include "datagen/bragg.hpp"
#include "labeling/voigt_fit.hpp"
#include "models/models.hpp"
#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace fairdms;

void BM_BraggNNInferencePerPeak(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  datagen::BraggRegime regime;
  const auto data = datagen::make_bragg_batchset(regime, {}, batch, rng);
  auto model = models::make_braggnn(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.net.forward(data.xs, nn::Mode::kEval).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_PseudoVoigtFitPerPeak(benchmark::State& state) {
  util::Rng rng(2);
  datagen::BraggRegime regime;
  const auto data = datagen::make_bragg_batchset(regime, {}, 16, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::span<const float> patch(data.xs.data() + (i++ % 16) * 225,
                                       225);
    benchmark::DoNotOptimize(labeling::fit_peak(patch, 15));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_KMeansAssignBatch(benchmark::State& state) {
  util::Rng rng(3);
  const auto xs = tensor::Tensor::randn({1024, 16}, rng);
  cluster::KMeansConfig config;
  config.k = 15;
  const auto model = cluster::kmeans_fit(xs, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assign_batch(xs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

// C = op(A) op(B) with op(A) [m, k] and op(B) [k, n], stored as the
// library stores them: a transposed operand is kept [k, m] or [n, k].
void BM_MatmulShape(benchmark::State& state, std::size_t m, std::size_t k,
                    std::size_t n, bool trans_a, bool trans_b) {
  util::Rng rng(5);
  const auto a = tensor::Tensor::randn(
      trans_a ? std::vector<std::size_t>{k, m} : std::vector<std::size_t>{m, k},
      rng);
  const auto b = tensor::Tensor::randn(
      trans_b ? std::vector<std::size_t>{n, k} : std::vector<std::size_t>{k, n},
      rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b, trans_a, trans_b).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}

// BraggNN's second convolution, 8 -> 16 channels on 13x13 inputs, over a
// batch of 32: forward, then forward + backward.
void BM_Conv2dBraggNN(benchmark::State& state) {
  const bool backward = state.range(0) != 0;
  util::Rng rng(6);
  nn::Conv2d layer(8, 16, 3, rng);
  const auto x = tensor::Tensor::randn({32, 8, 13, 13}, rng);
  const auto grad = tensor::Tensor::randn({32, 16, 11, 11}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x, nn::Mode::kTrain).data());
    if (backward) benchmark::DoNotOptimize(layer.backward(grad).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

}  // namespace

BENCHMARK(BM_BraggNNInferencePerPeak)->Arg(64)->Arg(256);
BENCHMARK(BM_PseudoVoigtFitPerPeak);
BENCHMARK(BM_KMeansAssignBatch);
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);
// Serving embed, 16 images: Linear(225, 128) then Linear(128, 12).
BENCHMARK_CAPTURE(BM_MatmulShape, embed_16x225_128_NT, 16, 225, 128, false,
                  true);
BENCHMARK_CAPTURE(BM_MatmulShape, embed_16x128_12_NT, 16, 128, 12, false, true);
// BYOL's Linear(225, 128) at a batch of 64: forward, weight grad, input grad.
BENCHMARK_CAPTURE(BM_MatmulShape, byol_64x225_128_NT, 64, 225, 128, false,
                  true);
BENCHMARK_CAPTURE(BM_MatmulShape, byol_dW_128x64_225_TN, 128, 64, 225, true,
                  false);
BENCHMARK_CAPTURE(BM_MatmulShape, byol_dX_64x128_225_NN, 64, 128, 225, false,
                  false);
// BraggNN fc1, Linear(1936, 64) at a batch of 32, and its two gradients.
BENCHMARK_CAPTURE(BM_MatmulShape, fc1_32x1936_64_NT, 32, 1936, 64, false,
                  true);
BENCHMARK_CAPTURE(BM_MatmulShape, fc1_dW_64x32_1936_TN, 64, 32, 1936, true,
                  false);
BENCHMARK_CAPTURE(BM_MatmulShape, fc1_dX_32x64_1936_NN, 32, 64, 1936, false,
                  false);
// One sample of Conv2d(8 -> 16): W [16, 72] times the 72 x 121 im2col matrix.
BENCHMARK_CAPTURE(BM_MatmulShape, conv8to16_16x72_121_NN, 16, 72, 121, false,
                  false);
BENCHMARK(BM_Conv2dBraggNN)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
