#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::tensor {

namespace {
std::size_t shape_numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, util::Rng& rng,
                     float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::rand_uniform(std::vector<std::size_t> shape, util::Rng& rng,
                            float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::from_vector(std::vector<std::size_t> shape,
                           std::vector<float> values) {
  FAIRDMS_CHECK(shape_numel(shape) == values.size(),
                "from_vector: shape/value count mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  FAIRDMS_CHECK(axis < shape_.size(), "dim(", axis, ") on rank-",
                shape_.size(), " tensor");
  return shape_[axis];
}

std::string Tensor::shape_str() const {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << ", ";
    oss << shape_[i];
  }
  oss << ']';
  return oss.str();
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  FAIRDMS_CHECK(shape_numel(new_shape) == numel(), "reshape ", shape_str(),
                " -> incompatible element count");
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  FAIRDMS_CHECK(rank() == 2, "at(r,c) on rank-", rank(), " tensor");
  FAIRDMS_CHECK(r < shape_[0] && c < shape_[1], "at(", r, ",", c,
                ") out of bounds for ", shape_str());
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

#define FAIRDMS_TENSOR_BINOP(name, expr)                                \
  Tensor& Tensor::name(const Tensor& other) {                           \
    FAIRDMS_CHECK(numel() == other.numel(), #name ": size mismatch ",   \
                  shape_str(), " vs ", other.shape_str());              \
    float* a = data_.data();                                            \
    const float* b = other.data_.data();                                \
    for (std::size_t i = 0; i < data_.size(); ++i) expr;                \
    return *this;                                                       \
  }

FAIRDMS_TENSOR_BINOP(add_, a[i] += b[i])
FAIRDMS_TENSOR_BINOP(sub_, a[i] -= b[i])
FAIRDMS_TENSOR_BINOP(mul_, a[i] *= b[i])
#undef FAIRDMS_TENSOR_BINOP

Tensor& Tensor::scale_(float k) {
  for (float& v : data_) v *= k;
  return *this;
}

Tensor& Tensor::fill_(float value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Tensor& Tensor::axpy_(float k, const Tensor& other) {
  FAIRDMS_CHECK(numel() == other.numel(), "axpy_: size mismatch");
  float* a = data_.data();
  const float* b = other.data_.data();
  for (std::size_t i = 0; i < data_.size(); ++i) a[i] += k * b[i];
  return *this;
}

Tensor Tensor::add(const Tensor& other) const {
  Tensor out = *this;
  return out.add_(other);
}
Tensor Tensor::sub(const Tensor& other) const {
  Tensor out = *this;
  return out.sub_(other);
}
Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = *this;
  return out.mul_(other);
}
Tensor Tensor::scaled(float k) const {
  Tensor out = *this;
  return out.scale_(k);
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v);
  return s;
}

double Tensor::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Tensor::norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

namespace {

// Four float lanes. GCC and Clang lower it to SSE on x86-64 and to NEON on
// AArch64 with no target flag. Each term is a multiply and an add rounded
// separately: on a target with FMA (an -march flag on x86-64, or AArch64),
// GCC's default -ffp-contract=fast may fuse them and the sums would no
// longer match the naive loop's bits.
using V4 = float __attribute__((vector_size(16)));

constexpr std::size_t kMr = 4;    // P rows per register tile
constexpr std::size_t kNr = 8;    // Q columns per register tile (two V4)
constexpr std::size_t kKc = 256;  // k block: a panel's block stays in L1
constexpr std::size_t kTileMinK = 16;  // shorter sums run as row updates

V4 load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
void store4(float* p, V4 v) { std::memcpy(p, &v, sizeof v); }
V4 splat(float x) { return V4{x, x, x, x}; }

// Strided matrix: element (r, col) at data[r * rs + col * cs].
struct View {
  const float* data;
  std::size_t rs;
  std::size_t cs;
};

// C = start + P * Q with P [mp, k] and Q [k, nq]; element (r, col) of this
// C lives at c[r * crs + col * ccs]. A tile broadcasts up to four P values
// per k against eight Q values, one panel of Q's columns. P is read in
// place. So is Q when its columns are contiguous, except a partial last
// panel: panels from `in_place` on are copied to `packed`, k rows of kNr
// floats each, zero past Q's last column.
struct Plan {
  View p;
  View q;
  float* c;
  std::size_t crs;
  std::size_t ccs;
  std::size_t mp;
  std::size_t nq;
  std::size_t k;
  bool accumulate;
  std::size_t in_place = 0;
  const float* packed = nullptr;
};

void pack_q(const Plan& pl, float* out) {
  const View& q = pl.q;
  for (std::size_t j0 = pl.in_place * kNr; j0 < pl.nq; j0 += kNr) {
    const std::size_t nr = std::min(kNr, pl.nq - j0);
    for (std::size_t kk = 0; kk < pl.k; ++kk, out += kNr) {
      const float* src = q.data + kk * q.rs + j0 * q.cs;
      for (std::size_t col = 0; col < nr; ++col) out[col] = src[col * q.cs];
      std::fill(out + nr, out + kNr, 0.0f);
    }
  }
}

// Row k0 of the Q panel at column j0, and the distance between its rows.
std::pair<const float*, std::size_t> q_panel(const Plan& pl, std::size_t j0,
                                             std::size_t k0) {
  const std::size_t index = j0 / kNr;
  if (index < pl.in_place) return {pl.q.data + k0 * pl.q.rs + j0, pl.q.rs};
  return {pl.packed + ((index - pl.in_place) * pl.k + k0) * kNr, kNr};
}

// The Mr x nr tile (nr <= kNr) at P row i0 and Q column j0, over k in
// [k0, k0 + kc): starts from 0 when `zero_start`, else from C. `q` is the
// panel's row k0 and `qs` the distance between its rows. Padded columns
// past nr are computed and dropped.
template <std::size_t Mr>
void tile(const Plan& pl, const float* q, std::size_t qs, std::size_t i0,
          std::size_t j0, std::size_t nr, std::size_t k0, std::size_t kc,
          bool zero_start) {
  float* const c = pl.c + i0 * pl.crs + j0 * pl.ccs;
  // A whole row-major tile moves as vectors; the rest goes through a
  // scratch tile.
  const bool direct = nr == kNr && pl.ccs == 1;
  V4 acc[Mr][2] = {};
  if (!zero_start && direct) {
    for (std::size_t r = 0; r < Mr; ++r) {
      acc[r][0] = load4(c + r * pl.crs);
      acc[r][1] = load4(c + r * pl.crs + 4);
    }
  } else if (!zero_start) {
    alignas(16) float t[Mr][kNr] = {};
    for (std::size_t r = 0; r < Mr; ++r) {
      for (std::size_t col = 0; col < nr; ++col) {
        t[r][col] = c[r * pl.crs + col * pl.ccs];
      }
      acc[r][0] = load4(t[r]);
      acc[r][1] = load4(t[r] + 4);
    }
  }
  const float* p[Mr];
  for (std::size_t r = 0; r < Mr; ++r) {
    p[r] = pl.p.data + (i0 + r) * pl.p.rs + k0 * pl.p.cs;
  }
  for (std::size_t kk = 0; kk < kc; ++kk, q += qs) {
    const V4 b0 = load4(q);
    const V4 b1 = load4(q + 4);
    const std::size_t off = kk * pl.p.cs;
    for (std::size_t r = 0; r < Mr; ++r) {
      const V4 a = splat(p[r][off]);
      acc[r][0] += a * b0;
      acc[r][1] += a * b1;
    }
  }
  if (direct) {
    for (std::size_t r = 0; r < Mr; ++r) {
      store4(c + r * pl.crs, acc[r][0]);
      store4(c + r * pl.crs + 4, acc[r][1]);
    }
    return;
  }
  alignas(16) float t[Mr][kNr] = {};
  for (std::size_t r = 0; r < Mr; ++r) {
    store4(t[r], acc[r][0]);
    store4(t[r] + 4, acc[r][1]);
    for (std::size_t col = 0; col < nr; ++col) {
      c[r * pl.crs + col * pl.ccs] = t[r][col];
    }
  }
}

// The Mr-row tiles at P row i0, k block by k block. Each block continues
// from the sums the previous one stored, so every sum runs in increasing k.
template <std::size_t Mr>
void tile_rows(const Plan& pl, std::size_t i0) {
  for (std::size_t k0 = 0; k0 < pl.k; k0 += kKc) {
    const std::size_t kc = std::min(kKc, pl.k - k0);
    const bool zero_start = k0 == 0 && !pl.accumulate;
    for (std::size_t j0 = 0; j0 < pl.nq; j0 += kNr) {
      const auto [q, qs] = q_panel(pl, j0, k0);
      tile<Mr>(pl, q, qs, i0, j0, std::min(kNr, pl.nq - j0), k0, kc,
               zero_start);
    }
  }
}

// P row i against Q with k outer and columns inner, straight on C's row
// (C and Q rows contiguous). Each C value still sums in increasing k.
void axpy_row(const Plan& pl, std::size_t i) {
  float* const crow = pl.c + i * pl.crs;
  if (!pl.accumulate) std::fill_n(crow, pl.nq, 0.0f);
  const float* p = pl.p.data + i * pl.p.rs;
  for (std::size_t kk = 0; kk < pl.k; ++kk) {
    const float a = p[kk * pl.p.cs];
    const float* qrow = pl.q.data + kk * pl.q.rs;
    for (std::size_t j = 0; j < pl.nq; ++j) crow[j] += a * qrow[j];
  }
}

// P row panels [first, last). Whole panels run as kMr-row tiles, unless k
// is under kTileMinK: then a tile's few steps do not repay its set-up, and
// rows with contiguous C and Q run as row updates. So do the rows of a
// last panel short of kMr rows, or single-row tiles when rows are not
// contiguous.
void run_panels(const Plan& pl, std::size_t first, std::size_t last) {
  const bool rows = pl.ccs == 1 && pl.q.cs == 1;
  const std::size_t tiled =
      rows && pl.k < kTileMinK ? first : std::min(last, pl.mp / kMr);
  for (std::size_t panel = first; panel < tiled; ++panel) {
    tile_rows<kMr>(pl, panel * kMr);
  }
  for (std::size_t i = tiled * kMr; i < std::min(last * kMr, pl.mp); ++i) {
    if (rows) {
      axpy_row(pl, i);
    } else {
      tile_rows<1>(pl, i);
    }
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
          bool trans_b, float* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (accumulate) return;
    for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0f);
    return;
  }
  const View op_a = trans_a ? View{a, 1, lda} : View{a, lda, 1};
  const View op_b = trans_b ? View{b, 1, ldb} : View{b, ldb, 1};
  // Either C = op(A) op(B), or C^T = op(B)^T op(A)^T with its tiles stored
  // one float at a time. Take the cheaper, in rough float moves: half a
  // move per lane multiply-add (Q's columns round up to whole panels), two
  // per packed Q float, six per C float moved per k block.
  const std::size_t k_blocks = (k + kKc - 1) / kKc;
  const auto cost = [&](std::size_t rows, std::size_t cols, bool packed,
                        bool scattered) {
    const std::size_t lanes = (cols + kNr - 1) / kNr * kNr;
    return rows * lanes * k / 2 + (packed ? 2 * k * lanes : 0) +
           (scattered ? 6 * rows * cols * k_blocks : 0);
  };
  Plan pl = cost(n, m, !trans_a, true) < cost(m, n, trans_b, false)
                ? Plan{View{b, op_b.cs, op_b.rs}, View{a, op_a.cs, op_a.rs},
                       c, 1, ldc, n, m, k, accumulate}
                : Plan{op_a, op_b, c, ldc, 1, m, n, k, accumulate};
  pl.in_place = pl.q.cs == 1 ? pl.nq / kNr : 0;
  const std::size_t packed_panels = (pl.nq + kNr - 1) / kNr - pl.in_place;
  const auto packed =
      std::make_unique_for_overwrite<float[]>(packed_panels * k * kNr);
  pack_q(pl, packed.get());
  pl.packed = packed.get();
  const std::size_t p_panels = (pl.mp + kMr - 1) / kMr;
  if (m * n * k < kGemmInlineMacs) {
    run_panels(pl, 0, p_panels);
    return;
  }
  util::parallel_for(p_panels, [&](std::size_t first, std::size_t last) {
    run_panels(pl, first, last);
  });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  FAIRDMS_CHECK(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 inputs");
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  FAIRDMS_CHECK(k == kb, "matmul inner-dim mismatch: ", a.shape_str(), " x ",
                b.shape_str());
  Tensor c({m, n});
  gemm(m, n, k, a.data(), a.dim(1), trans_a, b.data(), b.dim(1), trans_b,
       c.data(), n, /*accumulate=*/false);
  return c;
}

double dot(const Tensor& a, const Tensor& b) {
  FAIRDMS_CHECK(a.numel() == b.numel(), "dot: size mismatch");
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(pa[i]) * pb[i];
  }
  return s;
}

double squared_distance(const Tensor& a, const Tensor& b) {
  FAIRDMS_CHECK(a.numel() == b.numel(), "squared_distance: size mismatch");
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    s += d * d;
  }
  return s;
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  const double na = a.norm();
  const double nb = b.norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

}  // namespace fairdms::tensor
