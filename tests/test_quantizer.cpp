#include "quant/quantizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/microkernel.hpp"
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

/// Restores the float-core dispatch (which quantize_u8 follows) on exit.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(gemm::mk::active().target) {}
  ~DispatchGuard() { gemm::mk::force(saved_); }

 private:
  gemm::mk::Target saved_;
};

TEST(Quantizer, U8TiersMatchScalarReferenceBitwise) {
  // quantize() is the one-std::round-per-element reference; quantize_u8
  // must equal it on every dispatch tier. Exact codes and code + 1/2 ties
  // come from params whose step and min are exact in float and double.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<QuantParams> params;
  std::vector<std::vector<float>> inputs;
  Rng rng(4);
  for (int bits = 2; bits <= 8; ++bits) {
    const double top = static_cast<double>((1 << bits) - 1);
    for (const auto& [min, step] : {std::pair{0.0, 1.0}, std::pair{-3.25, 0.5},
                                    std::pair{1.5, 0.0078125}, std::pair{-0.1, 0.013}}) {
      QuantParams p;
      p.bits = bits;
      p.min = min;
      p.max = min + step * top;
      std::vector<float> v;
      for (int c = -3; c <= (1 << bits) + 2; ++c) {
        for (const double frac : {0.0, 0.5, -0.5, 0.49999997, 0.50000006, 0.25}) {
          v.push_back(static_cast<float>(min + (c + frac) * step));
        }
      }
      for (const float special : {nan, -nan, inf, -inf, 1e30F, -1e30F, denorm, -denorm, 0.0F,
                                  -0.0F, std::numeric_limits<float>::max(),
                                  std::numeric_limits<float>::lowest()}) {
        v.push_back(special);
      }
      for (int i = 0; i < 20000; ++i) {
        v.push_back(static_cast<float>(min + rng.uniform(-0.2, 1.2) * step * top));
      }
      params.push_back(p);
      inputs.push_back(v);
    }
  }
  const DispatchGuard guard;
  std::size_t checked = 0;
  for (std::size_t c = 0; c < params.size(); ++c) {
    const QuantParams& p = params[c];
    // Lengths off the 4-wide vector body exercise every tail.
    for (const std::size_t len : {inputs[c].size(), inputs[c].size() - 1, std::size_t{0},
                                  std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                                  std::size_t{7}}) {
      const Tensor t(Shape{static_cast<std::int64_t>(len)},
                     std::vector<float>(inputs[c].begin(),
                                        inputs[c].begin() + static_cast<std::ptrdiff_t>(len)));
      const std::vector<std::uint32_t> want = quantize(t, p);
      for (const gemm::mk::Target tier :
           {gemm::mk::Target::kScalar, gemm::mk::Target::kSse, gemm::mk::Target::kAvx2}) {
        if (!gemm::mk::force(tier)) continue;
        std::vector<std::uint8_t> got(len + 1, 0xEE);  // One guard byte past the end.
        quantize_u8(t, p, got.data());
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(got[i], want[i]) << "bits " << p.bits << " min " << p.min << " value "
                                     << t.at(static_cast<std::int64_t>(i)) << " tier "
                                     << static_cast<int>(tier);
        }
        EXPECT_EQ(got[len], 0xEE) << "wrote past the end";
        checked += len;
      }
    }
  }
  EXPECT_GT(checked, 1000000U);
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
