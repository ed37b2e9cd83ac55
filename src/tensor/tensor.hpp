// Dense row-major float tensor.
//
// This is the numeric substrate for the NN stack (src/nn), the embedding
// algorithms (src/embed) and k-means (src/cluster). It is deliberately small:
// contiguous float storage, shape arithmetic, elementwise ops, and the one
// matrix-product kernel (gemm) under matmul, nn::Linear and nn::Conv2d.
// Layers that need structure (conv, pooling) index into the flat storage
// themselves.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace fairdms::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates zero-initialized storage of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  // --- factories -----------------------------------------------------------
  static Tensor zeros(std::vector<std::size_t> shape);
  static Tensor full(std::vector<std::size_t> shape, float value);
  /// N(0, stddev) entries from `rng`.
  static Tensor randn(std::vector<std::size_t> shape, util::Rng& rng,
                      float stddev = 1.0f);
  /// U(lo, hi) entries from `rng`.
  static Tensor rand_uniform(std::vector<std::size_t> shape, util::Rng& rng,
                             float lo, float hi);
  static Tensor from_vector(std::vector<std::size_t> shape,
                            std::vector<float> values);

  // --- shape ---------------------------------------------------------------
  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::string shape_str() const;

  /// Same storage, new shape; total element count must match.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> new_shape) const;

  // --- element access ------------------------------------------------------
  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D accessors (checked rank in debug paths only via at()).
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  // --- elementwise in-place ops -------------------------------------------
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(const Tensor& other);
  Tensor& scale_(float k);
  Tensor& fill_(float value);
  /// this += k * other  (AXPY).
  Tensor& axpy_(float k, const Tensor& other);

  // --- elementwise out-of-place -------------------------------------------
  [[nodiscard]] Tensor add(const Tensor& other) const;
  [[nodiscard]] Tensor sub(const Tensor& other) const;
  [[nodiscard]] Tensor mul(const Tensor& other) const;
  [[nodiscard]] Tensor scaled(float k) const;

  // --- reductions ----------------------------------------------------------
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] float max_abs() const;
  /// L2 norm of the flattened tensor.
  [[nodiscard]] double norm() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Products of at least this many multiply-adds (m * k * n) split over the
/// global thread pool; smaller ones run inline on the calling thread.
inline constexpr std::size_t kGemmInlineMacs = std::size_t{1} << 20;

/// The matrix-product kernel: C = start + op(A) * op(B), where op is an
/// optional transpose, op(A) is [m, k], op(B) is [k, n] and C is [m, n].
/// A, B and C are row-major with leading dimensions lda, ldb and ldc (the
/// stored row length: a transposed A is stored [k, m]). `start` is 0, or
/// C's current value when `accumulate` is set (C += op(A) * op(B)).
///
/// Every C[i][j] is summed in increasing k, one float multiply and one
/// float add per term, onto its start value, so the result equals the naive
/// k-ordered loop bit for bit (finite inputs), whatever the tiling or the
/// thread count. Products below kGemmInlineMacs run on the calling thread.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
          bool trans_b, float* c, std::size_t ldc, bool accumulate);

/// C = op(A) * op(B) where op is optional transpose. Shapes (after op):
/// A: [M, K], B: [K, N] -> C: [M, N]. One gemm call.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Dot product of two equally sized tensors (flattened).
double dot(const Tensor& a, const Tensor& b);

/// Squared Euclidean distance between two equally shaped tensors.
double squared_distance(const Tensor& a, const Tensor& b);

/// Cosine similarity of flattened tensors; 0 when either is all-zero.
double cosine_similarity(const Tensor& a, const Tensor& b);

}  // namespace fairdms::tensor
