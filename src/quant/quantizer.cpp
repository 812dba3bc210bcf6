#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/stats.hpp"

namespace redcane::quant {
namespace {

/// Clamps a rounded code into [0, top]; NaN maps to 0, so the integer cast
/// is always defined. Equals std::clamp(q, 0.0, top) for every other q.
double clamp_code(double q, double top) { return !(q > 0.0) ? 0.0 : std::min(q, top); }

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
  for (std::size_t i = 0; i < td.size(); ++i) {
    const double q = std::round((static_cast<double>(td[i]) - p.min) * inv_step);
    out[i] = static_cast<std::uint8_t>(clamp_code(q, top));
  }
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
