#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, util::Rng& rng, std::size_t stride,
               std::size_t padding)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({out_channels}) {
  FAIRDMS_CHECK(kernel >= 1 && stride >= 1, "Conv2d: bad kernel/stride");
  const auto fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_ = Tensor::rand_uniform(weight_.shape(), rng, -bound, bound);
}

void Conv2d::im2col(const float* img, std::size_t h, std::size_t w,
                    float* cols) const {
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  const std::size_t plane = h * w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < in_c_; ++c) {
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++row) {
        float* dst = cols + row * (oh * ow);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            const bool inside = iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
                                ix >= 0 && ix < static_cast<std::ptrdiff_t>(w);
            dst[oy * ow + ox] =
                inside ? img[c * plane +
                             static_cast<std::size_t>(iy) * w +
                             static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* cols, std::size_t h, std::size_t w,
                    float* img) const {
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  const std::size_t plane = h * w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < in_c_; ++c) {
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      for (std::size_t kx = 0; kx < kernel_; ++kx, ++row) {
        const float* src = cols + row * (oh * ow);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
              static_cast<std::ptrdiff_t>(padding_);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                static_cast<std::ptrdiff_t>(padding_);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            img[c * plane + static_cast<std::size_t>(iy) * w +
                static_cast<std::size_t>(ix)] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& x, Mode mode) {
  FAIRDMS_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
                "Conv2d: expected [N, ", in_c_, ", H, W], got ", x.shape_str());
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  FAIRDMS_CHECK(oh > 0 && ow > 0, "Conv2d: output collapsed to zero for ",
                x.shape_str());
  if (mode == Mode::kTrain) cached_input_ = x;

  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t col_cols = oh * ow;
  Tensor y({n, out_c_, oh, ow});
  const float* px = x.data();
  float* py = y.data();
  const float* pw = weight_.data();
  const float* pb = bias_.data();

  util::ThreadPool::global().parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::vector<float> cols(col_rows * col_cols);
        for (std::size_t i = begin; i < end; ++i) {
          im2col(px + i * in_c_ * h * w, h, w, cols.data());
          float* out = py + i * out_c_ * col_cols;
          // out[oc, :] = b[oc] + W[oc, :] . cols, summed from the bias.
          for (std::size_t oc = 0; oc < out_c_; ++oc) {
            std::fill_n(out + oc * col_cols, col_cols, pb[oc]);
          }
          tensor::gemm(out_c_, col_cols, col_rows, pw, col_rows, false,
                       cols.data(), col_cols, false, out, col_cols,
                       /*accumulate=*/true);
        }
      },
      /*min_grain=*/1);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_input_.empty(), "Conv2d::backward before forward");
  const Tensor& x = cached_input_;
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  FAIRDMS_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                    grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
                    grad_out.dim(3) == ow,
                "Conv2d: bad grad shape ", grad_out.shape_str());

  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t col_cols = oh * ow;
  Tensor grad_x(x.shape());
  const float* px = x.data();
  const float* pg = grad_out.data();
  float* pgx = grad_x.data();
  const float* pw = weight_.data();

  // Each chunk's weight/bias partial sums land in the slot of its chunk
  // index (a chunk covers at least one sample, so n slots suffice) and are
  // added in chunk order after the call, so the float sums do not depend
  // on which chunk finishes first. The chunk count follows the pool size:
  // gradients repeat bit for bit on one host, not across hosts with
  // different core counts.
  std::vector<Tensor> chunk_gw(n);
  std::vector<Tensor> chunk_gb(n);
  util::ThreadPool::global().parallel_for_chunked(
      n,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<float> cols(col_rows * col_cols);
        std::vector<float> gcols(col_rows * col_cols);
        Tensor local_gw(grad_weight_.shape());
        Tensor local_gb(grad_bias_.shape());
        float* lgw = local_gw.data();
        float* lgb = local_gb.data();
        for (std::size_t i = begin; i < end; ++i) {
          im2col(px + i * in_c_ * h * w, h, w, cols.data());
          const float* gout = pg + i * out_c_ * col_cols;
          // db[oc] += sum_j gout[oc, j]
          for (std::size_t oc = 0; oc < out_c_; ++oc) {
            const float* grow = gout + oc * col_cols;
            double bsum = 0.0;
            for (std::size_t j = 0; j < col_cols; ++j) {
              bsum += static_cast<double>(grow[j]);
            }
            lgb[oc] += static_cast<float>(bsum);
          }
          // dW += gout cols^T ; gcols = W^T gout
          tensor::gemm(out_c_, col_rows, col_cols, gout, col_cols, false,
                       cols.data(), col_cols, true, lgw, col_rows,
                       /*accumulate=*/true);
          tensor::gemm(col_rows, col_cols, out_c_, pw, col_rows, true, gout,
                       col_cols, false, gcols.data(), col_cols,
                       /*accumulate=*/false);
          col2im(gcols.data(), h, w, pgx + i * in_c_ * h * w);
        }
        chunk_gw[chunk] = std::move(local_gw);
        chunk_gb[chunk] = std::move(local_gb);
      },
      /*min_grain=*/1);
  // Chunk indices are dense from 0, so the first empty slot ends them.
  for (std::size_t c = 0; c < n && !chunk_gw[c].empty(); ++c) {
    grad_weight_.add_(chunk_gw[c]);
    grad_bias_.add_(chunk_gb[c]);
  }
  return grad_x;
}

}  // namespace fairdms::nn
