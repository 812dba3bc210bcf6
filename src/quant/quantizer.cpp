#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/microkernel.hpp"
#include "tensor/stats.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define REDCANE_QUANT_X86 1
#include <immintrin.h>
#else
#define REDCANE_QUANT_X86 0
#endif

namespace redcane::quant {
namespace {

/// Clamps a rounded code into [0, top]; NaN maps to 0, so the integer cast
/// is always defined. Equals std::clamp(q, 0.0, top) for every other q.
double clamp_code(double q, double top) { return !(q > 0.0) ? 0.0 : std::min(q, top); }

/// The reference: one std::round per element (a libm call on the
/// baseline x86-64 target, which has no SSE4.1 rounding instruction).
void quantize_u8_scalar(const float* x, std::size_t n, double min, double inv_step, double top,
                        std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double q = std::round((static_cast<double>(x[i]) - min) * inv_step);
    out[i] = static_cast<std::uint8_t>(clamp_code(q, top));
  }
}

#if REDCANE_QUANT_X86
/// Four elements at a time, bit for bit the scalar loop: the same double
/// (x - min) * inv_step (no FMA: the target enables none), round half away
/// from zero as t = trunc(q), plus copysign(1, q) when |q - t| >= 0.5 (the
/// difference is exact), then clamp_code's !(q > 0) ? 0 : min(q, top).
/// NaN and -inf fail q > 0 and give code 0; +inf has q - t = NaN, keeps t
/// and clamps to top.
__attribute__((target("avx2"))) void quantize_u8_avx2(const float* x, std::size_t n, double min,
                                                      double inv_step, double top,
                                                      std::uint8_t* out) {
  const __m256d vmin = _mm256_set1_pd(min);
  const __m256d vinv = _mm256_set1_pd(inv_step);
  const __m256d vtop = _mm256_set1_pd(top);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d q = _mm256_mul_pd(_mm256_sub_pd(v, vmin), vinv);
    const __m256d t = _mm256_round_pd(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d away = _mm256_cmp_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(q, t)), half,
                                       _CMP_GE_OQ);
    const __m256d step = _mm256_and_pd(away, _mm256_or_pd(_mm256_and_pd(q, sign), one));
    const __m256d r = _mm256_add_pd(t, step);
    const __m256d code =
        _mm256_and_pd(_mm256_cmp_pd(r, zero, _CMP_GT_OQ), _mm256_min_pd(r, vtop));
    const __m128i c32 = _mm256_cvttpd_epi32(code);
    const __m128i c8 = _mm_packus_epi16(_mm_packs_epi32(c32, c32), _mm_setzero_si128());
    const int packed = _mm_cvtsi128_si32(c8);
    std::memcpy(out + i, &packed, 4);
  }
  quantize_u8_scalar(x + i, n - i, min, inv_step, top, out + i);
}
#endif

}  // namespace

QuantParams fit_params(const Tensor& t, int bits) {
  const stats::Range r = stats::range(t);
  QuantParams p;
  p.bits = bits;
  p.min = r.min;
  p.max = r.max;
  if (!(p.max > p.min)) p.max = p.min + 1.0;
  return p;
}

std::vector<std::uint32_t> quantize(const Tensor& t, const QuantParams& p) {
  std::vector<std::uint32_t> codes;
  codes.reserve(static_cast<std::size_t>(t.numel()));
  const double inv_step = 1.0 / p.step();
  const double top = static_cast<double>(p.max_code());
  for (float v : t.data()) {
    const double q = std::round((static_cast<double>(v) - p.min) * inv_step);
    codes.push_back(static_cast<std::uint32_t>(clamp_code(q, top)));
  }
  return codes;
}

std::vector<std::uint8_t> quantize_u8(const Tensor& t, const QuantParams& p) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(t.numel()));
  quantize_u8(t, p, out.data());
  return out;
}

void quantize_u8(const Tensor& t, const QuantParams& p, std::uint8_t* out) {
  const double inv_step = 1.0 / p.step();
  const double top = static_cast<double>(std::min(p.max_code(), 255U));
  const auto td = t.data();
#if REDCANE_QUANT_X86
  if (gemm::mk::active().target == gemm::mk::Target::kAvx2) {
    quantize_u8_avx2(td.data(), td.size(), p.min, inv_step, top, out);
    return;
  }
#endif
  quantize_u8_scalar(td.data(), td.size(), p.min, inv_step, top, out);
}

Tensor dequantize(const std::vector<std::uint32_t>& codes, const Shape& shape,
                  const QuantParams& p) {
  Tensor t(shape);
  auto td = t.data();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    td[i] = static_cast<float>(p.min + static_cast<double>(codes[i]) * p.step());
  }
  return t;
}

Tensor quantize_dequantize(const Tensor& t, int bits) {
  const QuantParams p = fit_params(t, bits);
  return dequantize(quantize(t, p), t.shape(), p);
}

}  // namespace redcane::quant
