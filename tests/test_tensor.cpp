// Unit + property tests for the tensor substrate, anchored by a naive
// reference GEMM.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

/// The summation contract: each C[i][j] starts from `start` (0 unless
/// given) and adds op(A)[i][k] * op(B)[k][j] one term at a time in
/// increasing k.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb,
                    const Tensor* start = nullptr) {
  const std::size_t m = ta ? a.dim(1) : a.dim(0);
  const std::size_t k = ta ? a.dim(0) : a.dim(1);
  const std::size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float sum = start != nullptr ? start->at(i, j) : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a.at(kk, i) : a.at(i, kk);
        const float bv = tb ? b.at(j, kk) : b.at(kk, j);
        sum += av * bv;
      }
      c.at(i, j) = sum;
    }
  }
  return c;
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.shape_str(), "[2, 3, 4]");
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FactoriesAndFill) {
  util::Rng rng(1);
  const Tensor f = Tensor::full({3, 3}, 2.5f);
  EXPECT_FLOAT_EQ(f.at(2, 2), 2.5f);
  const Tensor r = Tensor::randn({1000}, rng, 2.0f);
  EXPECT_NEAR(r.mean(), 0.0, 0.25);
  const Tensor u = Tensor::rand_uniform({1000}, rng, -1.0f, 1.0f);
  EXPECT_GE(u.flat()[0], -1.0f);
  const Tensor v = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(v.at(1, 0), 3.0f);
}

TEST(Tensor, ElementwiseOps) {
  const Tensor a = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::from_vector({2, 2}, {10, 20, 30, 40});
  EXPECT_FLOAT_EQ(a.add(b).at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(b.sub(a).at(1, 1), 36.0f);
  EXPECT_FLOAT_EQ(a.mul(b).at(1, 0), 90.0f);
  EXPECT_FLOAT_EQ(a.scaled(3.0f).at(0, 0), 3.0f);
  Tensor c = a;
  c.axpy_(2.0f, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 21.0f);
}

TEST(Tensor, Reductions) {
  const Tensor a = Tensor::from_vector({4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(a.sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.mean(), -0.5);
  EXPECT_FLOAT_EQ(a.max_abs(), 4.0f);
  EXPECT_NEAR(a.norm(), std::sqrt(30.0), 1e-6);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = a.reshaped({3, 2});
  EXPECT_FLOAT_EQ(b.at(2, 1), 6.0f);
  EXPECT_EQ(b.numel(), a.numel());
}

TEST(Tensor, DotDistanceCosine) {
  const Tensor a = Tensor::from_vector({3}, {1, 0, 0});
  const Tensor b = Tensor::from_vector({3}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(tensor::dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(tensor::squared_distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(a, b), 0.0);
  EXPECT_NEAR(tensor::cosine_similarity(a, a), 1.0, 1e-12);
  const Tensor zero({3});
  EXPECT_DOUBLE_EQ(tensor::cosine_similarity(a, zero), 0.0);
}

// Property: the kernel equals the naive k-ordered sum bit for bit, for every
// transpose combination, over shapes on and off the 4x8 register tile, k
// blocks of 256, and both sides of the inline/pool threshold.
using GemmShape = std::tuple<int, int, int, bool, bool>;
class MatmulProperty : public ::testing::TestWithParam<GemmShape> {};

TEST_P(MatmulProperty, MatchesNaive) {
  const auto [m, k, n, ta, tb] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n) +
                (ta ? 1 : 0) + (tb ? 2 : 0));
  const auto mu = static_cast<std::size_t>(m);
  const auto ku = static_cast<std::size_t>(k);
  const auto nu = static_cast<std::size_t>(n);
  Tensor a = Tensor::randn(ta ? std::vector<std::size_t>{ku, mu}
                              : std::vector<std::size_t>{mu, ku},
                           rng);
  // Exact zeros of both signs, as ReLU outputs and padding produce.
  for (std::size_t i = 0; i < a.numel(); i += 3) a[i] = i % 2 ? -0.0f : 0.0f;
  const Tensor b = Tensor::randn(tb ? std::vector<std::size_t>{nu, ku}
                                    : std::vector<std::size_t>{ku, nu},
                                 rng);
  const Tensor fast = tensor::matmul(a, b, ta, tb);
  const Tensor ref = naive_matmul(a, b, ta, tb);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    ASSERT_EQ(bits(fast[i]), bits(ref[i])) << "at " << i;
  }

  // The accumulating form, on operands stored with two spare columns per
  // row: C += op(A) op(B) continues each sum from C's value and leaves the
  // spare columns alone.
  const auto padded = [](const Tensor& t, float fill) {
    Tensor out = Tensor::full({t.dim(0), t.dim(1) + 2}, fill);
    for (std::size_t r = 0; r < t.dim(0); ++r) {
      for (std::size_t c = 0; c < t.dim(1); ++c) out.at(r, c) = t.at(r, c);
    }
    return out;
  };
  const Tensor start = Tensor::randn({mu, nu}, rng);
  const Tensor pa = padded(a, 7.0f);
  const Tensor pb = padded(b, 7.0f);
  Tensor pc = padded(start, 9.0f);
  tensor::gemm(mu, nu, ku, pa.data(), pa.dim(1), ta, pb.data(), pb.dim(1), tb,
               pc.data(), pc.dim(1), /*accumulate=*/true);
  const Tensor acc_ref = naive_matmul(a, b, ta, tb, &start);
  for (std::size_t i = 0; i < mu; ++i) {
    for (std::size_t j = 0; j < nu; ++j) {
      ASSERT_EQ(bits(pc.at(i, j)), bits(acc_ref.at(i, j)))
          << "accumulate at (" << i << ", " << j << ")";
    }
    EXPECT_EQ(pc.at(i, nu), 9.0f);
    EXPECT_EQ(pc.at(i, nu + 1), 9.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulProperty,
    ::testing::Combine(::testing::Values(1, 3, 17, 64),
                       ::testing::Values(1, 5, 32),
                       ::testing::Values(1, 7, 48),
                       ::testing::Bool(), ::testing::Bool()));

// Whole tiles and their neighbours, with k on and past a 256 block.
INSTANTIATE_TEST_SUITE_P(
    Tiles, MatmulProperty,
    ::testing::Combine(::testing::Values(4, 5, 8), ::testing::Values(256, 300),
                       ::testing::Values(8, 9, 16), ::testing::Bool(),
                       ::testing::Bool()));

// m * k * n just below and just above kGemmInlineMacs (2^20), and two
// pooled products with a long and a short side.
static_assert(std::size_t{64} * 128 * 127 < tensor::kGemmInlineMacs &&
              std::size_t{64} * 128 * 129 >= tensor::kGemmInlineMacs);
std::vector<GemmShape> threshold_shapes() {
  std::vector<GemmShape> shapes;
  for (const auto& [m, k, n] :
       {std::tuple{64, 128, 127}, std::tuple{64, 128, 129},
        std::tuple{33, 300, 107}, std::tuple{517, 3, 700}}) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) shapes.emplace_back(m, k, n, ta, tb);
    }
  }
  return shapes;
}
INSTANTIATE_TEST_SUITE_P(Threshold, MatmulProperty,
                         ::testing::ValuesIn(threshold_shapes()));

TEST(Matmul, EmptyInnerDimensionYieldsStartValue) {
  const Tensor a({3, 0});
  const Tensor b({0, 2});
  const Tensor c = tensor::matmul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<std::size_t>{3, 2}));
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(bits(c[i]), 0u);
  Tensor acc = Tensor::full({3, 2}, 1.5f);
  tensor::gemm(3, 2, 0, a.data(), 0, false, b.data(), 2, false, acc.data(), 2,
               /*accumulate=*/true);
  for (std::size_t i = 0; i < acc.numel(); ++i) EXPECT_EQ(acc[i], 1.5f);
}

TEST(Matmul, IdentityIsNoop) {
  util::Rng rng(9);
  const Tensor a = Tensor::randn({5, 5}, rng);
  Tensor eye({5, 5});
  for (std::size_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  const Tensor out = tensor::matmul(a, eye);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], a[i]);
  }
}

}  // namespace
}  // namespace fairdms
