#include "quant/quantizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace redcane::quant {
namespace {

TEST(Quantizer, FitParamsCoversRange) {
  const Tensor t(Shape{4}, {-2.0F, 0.0F, 1.0F, 6.0F});
  const QuantParams p = fit_params(t, 8);
  EXPECT_DOUBLE_EQ(p.min, -2.0);
  EXPECT_DOUBLE_EQ(p.max, 6.0);
  EXPECT_EQ(p.max_code(), 255U);
}

TEST(Quantizer, DegenerateTensorGetsUnitRange) {
  const Tensor t(Shape{3}, 5.0F);
  const QuantParams p = fit_params(t, 8);
  EXPECT_GT(p.max, p.min);
  EXPECT_GT(p.step(), 0.0);
}

TEST(Quantizer, EndpointsMapToExtremes) {
  const Tensor t(Shape{2}, {-1.0F, 1.0F});
  const QuantParams p = fit_params(t, 8);
  const auto codes = quantize(t, p);
  EXPECT_EQ(codes[0], 0U);
  EXPECT_EQ(codes[1], 255U);
}

TEST(Quantizer, RoundTripErrorWithinHalfStep) {
  Rng rng(1);
  const Tensor t = ops::uniform(Shape{1000}, -3.0, 4.0, rng);
  const QuantParams p = fit_params(t, 8);
  const Tensor r = dequantize(quantize(t, p), t.shape(), p);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(t.at(i) - r.at(i)), p.step() * 0.5 + 1e-6);
  }
}

TEST(Quantizer, MoreBitsLessError) {
  Rng rng(2);
  const Tensor t = ops::uniform(Shape{2000}, 0.0, 1.0, rng);
  auto mse = [&](int bits) {
    const Tensor r = quantize_dequantize(t, bits);
    double e = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const double d = t.at(i) - r.at(i);
      e += d * d;
    }
    return e / static_cast<double>(t.numel());
  };
  EXPECT_GT(mse(4), mse(6));
  EXPECT_GT(mse(6), mse(8));
  EXPECT_GT(mse(8), mse(12));
}

TEST(Quantizer, U8ClampsTo255) {
  const Tensor t(Shape{2}, {0.0F, 1.0F});
  QuantParams p;
  p.min = 0.0;
  p.max = 1.0;
  p.bits = 12;  // Codes exceed 255.
  const auto u8 = quantize_u8(t, p);
  EXPECT_EQ(u8[1], 255U);
}

TEST(Quantizer, NaNMapsToCodeZero) {
  // round(NaN) must not reach an integer cast (undefined behaviour).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor t(Shape{4}, {nan, -1.0F, 0.5F, 1.0F});
  const QuantParams p = fit_params(t, 8);
  EXPECT_DOUBLE_EQ(p.min, -1.0);
  EXPECT_DOUBLE_EQ(p.max, 1.0);
  const auto codes = quantize(t, p);
  EXPECT_EQ(codes[0], 0U);
  EXPECT_EQ(codes[1], 0U);
  EXPECT_EQ(codes[3], 255U);
  const auto u8 = quantize_u8(t, p);
  EXPECT_EQ(u8[0], 0U);
  EXPECT_EQ(u8[1], 0U);
  EXPECT_EQ(u8[3], 255U);
  for (std::size_t i = 1; i < codes.size(); ++i) EXPECT_EQ(u8[i], codes[i]);
}

TEST(Quantizer, PaperEq1Form) {
  // Q(x) = (x - min)/(max - min) * (2^b - 1), checked midpoint.
  const Tensor t(Shape{3}, {0.0F, 0.5F, 1.0F});
  QuantParams p;
  p.min = 0.0;
  p.max = 1.0;
  p.bits = 8;
  const auto codes = quantize(t, p);
  EXPECT_EQ(codes[1], 128U);  // round(0.5 * 255) = 128.
}

}  // namespace
}  // namespace redcane::quant
