#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/gemm.hpp"
#include "util/pool.hpp"

namespace redcane::ops {
namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "redcane::ops fatal: %s\n", what);
  std::abort();
}

void check_same_shape(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) fail("shape mismatch");
}

/// Normalizes one softmax lane in place (max-shifted exp over `extent`
/// elements spaced `stride` apart). kStride == 0 means runtime stride;
/// the kStride == 1 instantiation is the contiguous fast path (softmax
/// over the last axis — dynamic routing's coupling coefficients take it
/// every iteration), where the compile-time unit stride lets the simd
/// pragmas vectorize the scans.
template <std::int64_t kStride>
void softmax_lane(float* lane, std::int64_t extent, std::int64_t stride_arg) {
  const std::int64_t stride = kStride == 0 ? stride_arg : kStride;
  float mx = -std::numeric_limits<float>::infinity();
#pragma omp simd reduction(max : mx)
  for (std::int64_t e = 0; e < extent; ++e) mx = std::max(mx, lane[e * stride]);
  float denom = 0.0F;
  for (std::int64_t e = 0; e < extent; ++e) {
    float& v = lane[e * stride];
    v = std::exp(v - mx);
    denom += v;
  }
#pragma omp simd
  for (std::int64_t e = 0; e < extent; ++e) lane[e * stride] /= denom;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] += bd[i];
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] -= bd[i];
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  Tensor c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] *= bd[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a;
  for (float& v : c.data()) v *= s;
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b);
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) ad[i] += bd[i];
}

void scale_inplace(Tensor& a, float s) {
  for (float& v : a.data()) v *= s;
}

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  Tensor c = a;
  for (float& v : c.data()) v = f(v);
  return c;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  // Delegates to the blocked GEMM core. The previous hand loop skipped
  // a[i,k] == 0 contributions, silently dropping 0 * NaN / 0 * Inf; the
  // core has no such shortcut.
  return gemm::matmul(a, b);
}

Tensor softmax(const Tensor& a, std::int64_t axis) {
  const std::size_t ax = a.shape().normalize_axis(axis);
  const std::int64_t extent = a.shape().dim(static_cast<std::int64_t>(ax));
  const std::int64_t stride = a.shape().stride(static_cast<std::int64_t>(ax));
  const std::int64_t numel = a.numel();
  const std::int64_t block = extent * stride;
  Tensor c = a;
  auto cd = c.data();
  const std::int64_t blocks = block == 0 ? 0 : numel / block;
  // Lanes are independent; each is normalized by one thread, so the result
  // does not depend on the thread count. An element costs about one exp.
  const double block_ns = static_cast<double>(block) * 4.0;
  if (stride == 1) {
    pool::parallel_for(blocks, block_ns, [&](std::int64_t first, std::int64_t last) {
      for (std::int64_t blk = first; blk < last; ++blk) {
        softmax_lane<1>(&cd[static_cast<std::size_t>(blk * extent)], extent, 1);
      }
    });
    return c;
  }
  pool::parallel_for(blocks, block_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t blk = first; blk < last; ++blk) {
      const std::int64_t base = blk * block;
      for (std::int64_t off = 0; off < stride; ++off) {
        // One softmax lane: elements base+off, base+off+stride, ...
        softmax_lane<0>(&cd[static_cast<std::size_t>(base + off)], extent, stride);
      }
    }
  });
  return c;
}

double sum(const Tensor& a) {
  double s = 0.0;
  for (float v : a.data()) s += v;
  return s;
}

std::vector<std::int64_t> argmax_last_axis(const Tensor& a) {
  if (a.shape().rank() == 0) fail("argmax requires rank >= 1");
  const std::int64_t last = a.shape().dim(-1);
  const std::int64_t rows = a.numel() / last;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const auto ad = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t best = 0;
    float best_v = ad[static_cast<std::size_t>(r * last)];
    for (std::int64_t j = 1; j < last; ++j) {
      const float v = ad[static_cast<std::size_t>(r * last + j)];
      if (v > best_v) {
        best_v = v;
        best = j;
      }
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

Tensor l2_norm_last_axis(const Tensor& a) {
  if (a.shape().rank() == 0) fail("l2_norm requires rank >= 1");
  const std::int64_t last = a.shape().dim(-1);
  const std::int64_t rows = a.numel() / last;
  Tensor out(a.shape().without_axis(-1));
  const auto ad = a.data();
  auto od = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (std::int64_t j = 0; j < last; ++j) {
      const float v = ad[static_cast<std::size_t>(r * last + j)];
      s += static_cast<double>(v) * v;
    }
    od[static_cast<std::size_t>(r)] = static_cast<float>(std::sqrt(s));
  }
  return out;
}

Tensor gaussian(const Shape& shape, double mean, double stddev, Rng& rng) {
  Tensor t(shape);
  rng.fill_normal(t.data().data(), t.data().size(), mean, stddev);
  return t;
}

Tensor uniform(const Shape& shape, double lo, double hi, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

}  // namespace redcane::ops
