#include "quant/approx_conv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "approx/error_profile.hpp"
#include "approx/library.hpp"
#include "nn/im2col.hpp"
#include "quant/lut_cache.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace redcane::quant {
namespace {

struct ConvFixture {
  Tensor x;
  Tensor w;
  Tensor bias;
  ApproxConvSpec spec;

  static ConvFixture random(std::uint64_t seed) {
    Rng rng(seed);
    ConvFixture f;
    f.x = ops::uniform(Shape{2, 8, 8, 3}, 0.0, 1.0, rng);
    f.w = ops::uniform(Shape{3, 3, 3, 4}, -0.5, 0.5, rng);
    f.bias = ops::uniform(Shape{4}, -0.1, 0.1, rng);
    f.spec.stride = 1;
    f.spec.pad = 1;
    f.spec.bits = 8;
    return f;
  }
};

TEST(ApproxConv, ExactMultiplierMatchesReferenceWithinQuantError) {
  const ConvFixture f = ConvFixture::random(1);
  const Tensor ref = reference_conv2d(f.x, f.w, f.bias, f.spec);
  const Tensor got = approx_conv2d(f.x, f.w, f.bias, f.spec, approx::exact_multiplier());
  ASSERT_EQ(ref.shape(), got.shape());
  // 8-bit quantization over 27 taps: per-output error bounded by
  // taps * (step_x * |w|max + step_w * |x|max + step_x * step_w) / 2-ish.
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(ref.at(i), got.at(i), 0.08) << "at " << i;
  }
}

TEST(ApproxConv, OutputShapes) {
  const ConvFixture f = ConvFixture::random(2);
  const Tensor got = approx_conv2d(f.x, f.w, f.bias, f.spec, approx::exact_multiplier());
  EXPECT_EQ(got.shape(), (Shape{2, 8, 8, 4}));
  ApproxConvSpec strided = f.spec;
  strided.stride = 2;
  const Tensor s = approx_conv2d(f.x, f.w, f.bias, strided, approx::exact_multiplier());
  EXPECT_EQ(s.shape(), (Shape{2, 4, 4, 4}));
}

TEST(ApproxConv, ApproximateMultiplierAddsError) {
  const ConvFixture f = ConvFixture::random(3);
  const Tensor exact = approx_conv2d(f.x, f.w, f.bias, f.spec, approx::exact_multiplier());
  const Tensor noisy =
      approx_conv2d(f.x, f.w, f.bias, f.spec, approx::multiplier_by_name("axm_drum3_jv3"));
  double max_abs = 0.0;
  for (std::int64_t i = 0; i < exact.numel(); ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(exact.at(i) - noisy.at(i))));
  }
  EXPECT_GT(max_abs, 1e-4);
}

TEST(ApproxConv, ErrorScalesWithComponentAggressiveness) {
  const ConvFixture f = ConvFixture::random(4);
  const Tensor ref = reference_conv2d(f.x, f.w, f.bias, f.spec);
  auto rms_err = [&](const approx::Multiplier& m) {
    const Tensor got = approx_conv2d(f.x, f.w, f.bias, f.spec, m);
    double e = 0.0;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      const double d = ref.at(i) - got.at(i);
      e += d * d;
    }
    return std::sqrt(e / static_cast<double>(ref.numel()));
  };
  const double gentle = rms_err(approx::multiplier_by_analog("mul8u_NGR"));
  const double aggressive = rms_err(approx::multiplier_by_analog("mul8u_QKX"));
  EXPECT_LT(gentle, aggressive);
}

TEST(ApproxConv, GaussianNoiseModelPredictsRealErrorScale) {
  // D1 validation: the range-relative NM measured on the real approximate
  // conv output should be within an order of magnitude of the NM profiled
  // from the multiplier in isolation.
  const ConvFixture f = ConvFixture::random(5);
  const approx::Multiplier& m = approx::multiplier_by_analog("mul8u_DM1");
  const Tensor exact = approx_conv2d(f.x, f.w, f.bias, f.spec, approx::exact_multiplier());
  const Tensor noisy = approx_conv2d(f.x, f.w, f.bias, f.spec, m);
  const Tensor delta = ops::sub(noisy, exact);
  const stats::Moments dm = stats::moments(delta);
  const stats::Moments xm = stats::moments(exact);
  const double real_nm = dm.stddev / xm.range();

  approx::ProfileConfig pc;
  pc.samples = 20000;
  pc.chain_length = 27;  // 3x3x3 taps.
  const approx::ErrorProfile profile =
      approx::profile_multiplier(m, approx::InputDistribution::uniform(), pc);
  EXPECT_GT(real_nm, profile.nm / 10.0);
  EXPECT_LT(real_nm, profile.nm * 10.0);
}

/// A multiplier whose product depends on operand order, so a kernel that
/// read a row of the table where it needed a column would show.
class SkewedMultiplier final : public approx::Multiplier {
 public:
  SkewedMultiplier() : approx::Multiplier({"test_skewed_mul", "skewed", 0, "", 0.0, 0.0}) {}
  [[nodiscard]] std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    return static_cast<std::uint32_t>(a) * (b & 0xFC) + (a >> 5);
  }
};

/// From-scratch oracle of approx_conv2d: quantize both operands with the
/// scalar reference quantizer, run the direct convolution over the codes
/// (each product through `mul`, summed in ascending tap order exactly or
/// through `adder`), and dequantize in the pinned expression order.
Tensor oracle_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                   const ApproxConvSpec& spec, const approx::Multiplier& mul,
                   const approx::Adder* adder) {
  const std::int64_t n = x.shape().dim(0), h = x.shape().dim(1), wd = x.shape().dim(2);
  const std::int64_t cin = x.shape().dim(3), kh = w.shape().dim(0), kw = w.shape().dim(1);
  const std::int64_t cout = w.shape().dim(3);
  const std::int64_t ho = (h + 2 * spec.pad - kh) / spec.stride + 1;
  const std::int64_t wo = (wd + 2 * spec.pad - kw) / spec.stride + 1;
  const QuantParams px = fit_params(x, spec.bits);
  const QuantParams pw = fit_params(w, spec.bits);
  const std::vector<std::uint32_t> qx = quantize(x, px);
  const std::vector<std::uint32_t> qw = quantize(w, pw);
  const double sx = px.step();
  const double sw = pw.step();
  Tensor out(Shape{n, ho, wo, cout});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        for (std::int64_t co = 0; co < cout; ++co) {
          std::uint64_t qq = 0, qwsum = 0, qa = 0;
          std::uint32_t chain = 0;
          std::int64_t taps = 0;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t iy = oy * spec.stride + ky - spec.pad;
              const std::int64_t ix = ox * spec.stride + kx - spec.pad;
              if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
              for (std::int64_t ci = 0; ci < cin; ++ci) {
                const auto a = static_cast<std::uint8_t>(qx[static_cast<std::size_t>(
                    ((ni * h + iy) * wd + ix) * cin + ci)]);
                const auto b = static_cast<std::uint8_t>(
                    qw[static_cast<std::size_t>(((ky * kw + kx) * cin + ci) * cout + co)]);
                const std::uint32_t prod = mul.multiply(a, b);
                qq += prod;
                chain = adder == nullptr ? chain + prod : adder->add(chain, prod);
                qwsum += b;
                qa += a;
                ++taps;
              }
            }
          }
          const double row_base = px.min * pw.min * static_cast<double>(taps) +
                                  pw.min * sx * static_cast<double>(qa);
          double v = row_base;
          v += px.min * sw * static_cast<double>(qwsum);
          v += sx * sw * (adder == nullptr ? static_cast<double>(qq) : static_cast<double>(chain));
          if (!bias.empty()) v += bias.at(co);
          out.at(((ni * ho + oy) * wo + ox) * cout + co) = static_cast<float>(v);
        }
      }
    }
  }
  return out;
}

/// Restores the float + LUT dispatch on scope exit.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(gemm::mk::active().target) {}
  ~DispatchGuard() { gemm::mk::force(saved_); }

 private:
  gemm::mk::Target saved_;
};

TEST(ApproxConv, MatchesIndependentIntegerOracleBitwiseOnEveryTier) {
  // Shapes on both sides of the orientation rule (lut_lanes): CapsNet-like
  // 9x9 convs and strided convs put the lanes along positions; the wide
  // 3x3 conv on a 3x3 image and the 1x1-output conv keep them on channels.
  using gemm::lk::Lanes;
  struct Case {
    Shape x, w;
    int stride, pad;
    Lanes lanes;  ///< What the rule picks for this conv.
  };
  const Case cases[] = {
      {Shape{1, 16, 16, 1}, Shape{9, 9, 1, 8}, 1, 0, Lanes::kPositions},  // 64 x 8 x 81
      {Shape{2, 9, 9, 3}, Shape{3, 3, 3, 5}, 2, 1, Lanes::kPositions},    // padded, strided
      {Shape{1, 8, 8, 4}, Shape{3, 3, 4, 6}, 1, 1, Lanes::kPositions},    // padded
      {Shape{1, 3, 3, 2}, Shape{3, 3, 2, 40}, 1, 1, Lanes::kChannels},    // m = 9 < 2n
      {Shape{3, 5, 5, 2}, Shape{5, 5, 2, 12}, 2, 0, Lanes::kChannels},    // 1x1 output
      {Shape{2, 6, 6, 1}, Shape{2, 2, 1, 4}, 2, 1, Lanes::kPositions},    // k = 4 = n
  };
  const SkewedMultiplier skewed;
  const approx::Multiplier* muls[] = {&approx::exact_multiplier(),
                                      &approx::multiplier_by_name("axm_drum4_dm1"),
                                      &approx::multiplier_by_name("axm_res2_14vp"), &skewed};
  const approx::Adder* adders[] = {nullptr, &approx::adder_by_name("axa_loa6")};
  Rng rng(77);
  const DispatchGuard guard;
  for (const Case& c : cases) {
    const Tensor x = ops::uniform(c.x, -0.3, 1.0, rng);
    const Tensor w = ops::uniform(c.w, -0.5, 0.5, rng);
    const Tensor bias = ops::uniform(Shape{c.w.dim(3)}, -0.1, 0.1, rng);
    ApproxConvSpec spec;
    spec.stride = c.stride;
    spec.pad = c.pad;
    const nn::ConvDims d = nn::make_conv_dims(c.x, c.w, c.stride, c.pad);
    ASSERT_EQ(lut_lanes(d.rows(), d.cout, d.cols()), c.lanes) << c.x.to_string();
    for (const approx::Multiplier* mul : muls) {
      for (const approx::Adder* adder : adders) {
        const Tensor want = oracle_conv(x, w, bias, spec, *mul, adder);
        for (const gemm::mk::Target t :
             {gemm::mk::Target::kScalar, gemm::mk::Target::kSse, gemm::mk::Target::kAvx2}) {
          if (!gemm::mk::force(t)) continue;
          const Tensor got = approx_conv2d(x, w, bias, spec, MacUnit{mul, adder});
          ASSERT_EQ(want.shape(), got.shape());
          for (std::int64_t i = 0; i < want.numel(); ++i) {
            ASSERT_EQ(want.at(i), got.at(i))
                << c.x.to_string() << " * " << c.w.to_string() << " stride " << c.stride
                << " pad " << c.pad << " " << mul->info().name << "/"
                << (adder == nullptr ? "exact-acc" : adder->info().name) << " tier "
                << static_cast<int>(t) << " at " << i;
          }
        }
      }
    }
  }
  lut_cache_invalidate(&skewed);
}

TEST(ApproxConv, ValidPaddingSkipsBorder) {
  const ConvFixture f = ConvFixture::random(6);
  ApproxConvSpec valid = f.spec;
  valid.pad = 0;
  const Tensor got = approx_conv2d(f.x, f.w, f.bias, valid, approx::exact_multiplier());
  EXPECT_EQ(got.shape(), (Shape{2, 6, 6, 4}));
}

}  // namespace
}  // namespace redcane::quant
