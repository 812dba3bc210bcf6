#include "capsnet/squash.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/pool.hpp"

namespace redcane::capsnet {
namespace {

void check_rank(const Tensor& t) {
  if (t.shape().rank() < 1) {
    std::fprintf(stderr, "redcane::capsnet fatal: squash requires rank >= 1\n");
    std::abort();
  }
}

/// Serial cost of squashing one capsule of dimension `d` [ns, one core]:
/// a sqrt and a divide, then about a nanosecond per element.
double row_ns(std::int64_t d) { return 20.0 + static_cast<double>(d); }

}  // namespace

Tensor squash(const Tensor& s, double eps) {
  check_rank(s);
  const std::int64_t d = s.shape().dim(-1);
  const std::int64_t rows = s.numel() / d;
  Tensor v = s;
  auto vd = v.data();
  // Row-parallel outer loop, SIMD lanes across the capsule dimension. The
  // norm reduction order is fixed at compile time, so results stay
  // independent of the thread count.
  pool::parallel_for(rows, row_ns(d), [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t r = first; r < last; ++r) {
      float* row = &vd[static_cast<std::size_t>(r * d)];
      double norm2 = 0.0;
#pragma omp simd reduction(+ : norm2)
      for (std::int64_t k = 0; k < d; ++k) {
        const double x = row[k];
        norm2 += x * x;
      }
      const double norm = std::sqrt(norm2) + eps;
      // v = s * |s| / (1 + |s|^2), written as a single scale factor.
      const double scale = norm / (1.0 + norm2);
#pragma omp simd
      for (std::int64_t k = 0; k < d; ++k) {
        row[k] = static_cast<float>(row[k] * scale);
      }
    }
  });
  return v;
}

Tensor squash_backward(const Tensor& s, const Tensor& grad_v, double eps) {
  check_rank(s);
  if (s.shape() != grad_v.shape()) {
    std::fprintf(stderr, "redcane::capsnet fatal: squash_backward shape mismatch\n");
    std::abort();
  }
  const std::int64_t d = s.shape().dim(-1);
  const std::int64_t rows = s.numel() / d;
  Tensor grad_s(s.shape());
  const auto sd = s.data();
  const auto gv = grad_v.data();
  auto gs = grad_s.data();
  pool::parallel_for(rows, 2.0 * row_ns(d), [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t r = first; r < last; ++r) {
      const std::size_t base = static_cast<std::size_t>(r * d);
      const float* srow = &sd[base];
      const float* grow = &gv[base];
      double norm2 = 0.0;
      double dot = 0.0;  // s . grad_v
#pragma omp simd reduction(+ : norm2, dot)
      for (std::int64_t k = 0; k < d; ++k) {
        const double sv = srow[k];
        norm2 += sv * sv;
        dot += sv * grow[k];
      }
      const double rn = std::sqrt(norm2) + eps;
      const double denom = 1.0 + norm2;
      // v = c(r) s with c = r / (1 + r^2); dv/ds = c I + (c'/r) s s^T,
      // c' = (1 - r^2) / (1 + r^2)^2.
      const double c = rn / denom;
      const double cprime = (1.0 - norm2) / (denom * denom);
      const double radial = cprime / rn * dot;
      float* out = &gs[base];
#pragma omp simd
      for (std::int64_t k = 0; k < d; ++k) {
        out[k] = static_cast<float>(c * grow[k] + radial * srow[k]);
      }
    }
  });
  return grad_s;
}

}  // namespace redcane::capsnet
