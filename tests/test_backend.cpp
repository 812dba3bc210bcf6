// Execution-backend contracts (src/backend/ + quant/lut_gemm):
//  * the LUT-accumulate chain kernel with an exact adder reproduces the
//    exact integer kernel, and approximate adders actually perturb;
//  * an EmulatedBackend layer with the accurate multiplier + exact adder
//    matches the quantized reference convolution bitwise, per layer
//    (Conv2D vs quant::approx_conv2d, Dense vs quant::approx_matmul,
//    ClassCaps votes vs an independently coded affine oracle);
//  * emulation binds to eval forwards inside an armed scope only, is
//    thread-local, and nests;
//  * NoiseBackend reproduces the GaussianInjector streams of the sweep
//    engine / serving registry seeding discipline;
//  * SweepEngine::evaluate over a backend agrees with evaluating the
//    same point for rule-expressible backends and runs opaque backends
//    full-batch;
//  * Step 7: cross_validate_design reports |predicted - emulated| <= 2 pp
//    for accurate-multiplier selections (the acceptance gate of the
//    noise-model cross-validation).
#include "backend/backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "approx/library.hpp"
#include "capsnet/capsnet_model.hpp"
#include "capsnet/class_caps.hpp"
#include "capsnet/conv_caps3d.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "core/methodology.hpp"
#include "core/sweep_engine.hpp"
#include "data/synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "quant/approx_conv.hpp"
#include "quant/lut_gemm.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace redcane::backend {
namespace {

class ExactAccum final : public gemm::U32Accum {
 public:
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const override {
    return a + b;
  }
};

TEST(LutChainKernel, ExactAccumMatchesExactKernelAndMasksAgree) {
  const std::int64_t m = 7;
  const std::int64_t n = 5;
  const std::int64_t k = 23;
  Rng rng(11);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_u64() % 256);
  for (auto& v : mask) v = static_cast<std::uint8_t>(rng.next_u64() % 2);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u64() % 256);
  std::vector<std::uint32_t> lut(256 * 256);
  quant::build_product_lut(&approx::multiplier_by_name("axm_drum4_dm1"), lut.data());

  std::vector<std::uint64_t> qq64(static_cast<std::size_t>(m * n));
  std::vector<std::uint64_t> qw(static_cast<std::size_t>(m * n));
  std::vector<std::uint64_t> qa(static_cast<std::size_t>(m));
  std::vector<std::int64_t> taps(static_cast<std::size_t>(m));
  gemm::gemm_u8_lut(m, n, k, a.data(), mask.data(), b.data(), lut.data(), qq64.data(),
                    qw.data(), qa.data(), taps.data());

  std::vector<std::uint32_t> qq32(static_cast<std::size_t>(m * n));
  std::vector<std::uint64_t> qw2(static_cast<std::size_t>(m * n));
  std::vector<std::uint64_t> qa2(static_cast<std::size_t>(m));
  std::vector<std::int64_t> taps2(static_cast<std::size_t>(m));
  const ExactAccum exact;
  gemm::gemm_u8_lut_chain(m, n, k, a.data(), mask.data(), b.data(), lut.data(), exact,
                          qq32.data(), qw2.data(), qa2.data(), taps2.data());
  for (std::size_t i = 0; i < qq64.size(); ++i) {
    EXPECT_EQ(qq64[i], qq32[i]) << "qq at " << i;
    EXPECT_EQ(qw[i], qw2[i]) << "qw at " << i;
  }
  EXPECT_EQ(qa, qa2);
  EXPECT_EQ(taps, taps2);

  // Null mask == all-ones mask.
  std::vector<std::uint8_t> ones(static_cast<std::size_t>(m * k), 1);
  std::vector<std::uint64_t> qq_ones(static_cast<std::size_t>(m * n));
  gemm::gemm_u8_lut(m, n, k, a.data(), ones.data(), b.data(), lut.data(), qq_ones.data(),
                    qw.data(), qa.data(), taps.data());
  std::vector<std::uint64_t> qq_null(static_cast<std::size_t>(m * n));
  gemm::gemm_u8_lut(m, n, k, a.data(), nullptr, b.data(), lut.data(), qq_null.data(),
                    qw2.data(), qa2.data(), taps2.data());
  EXPECT_EQ(qq_ones, qq_null);
  for (std::int64_t i = 0; i < m; ++i) EXPECT_EQ(taps2[static_cast<std::size_t>(i)], k);

  // A truncating adder must actually change the sums on this data.
  class AdderAccum final : public gemm::U32Accum {
   public:
    explicit AdderAccum(const approx::Adder& a) : a_(a) {}
    [[nodiscard]] std::uint32_t add(std::uint32_t x, std::uint32_t y) const override {
      return a_.add(x, y);
    }
    const approx::Adder& a_;
  };
  const AdderAccum trunc(approx::adder_by_name("axa_trunc6"));
  gemm::gemm_u8_lut_chain(m, n, k, a.data(), mask.data(), b.data(), lut.data(), trunc,
                          qq32.data(), qw2.data(), qa2.data(), taps2.data());
  bool any_differs = false;
  for (std::size_t i = 0; i < qq64.size(); ++i) {
    if (qq64[i] != qq32[i]) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Emulation, Conv2DMatchesQuantizedReferenceBitwise) {
  Rng rng(5);
  nn::Conv2DSpec cs;
  cs.in_channels = 3;
  cs.out_channels = 4;
  cs.kernel = 3;
  cs.stride = 1;
  cs.pad = 1;
  nn::Conv2D conv("ConvX", cs, rng);
  const Tensor x = ops::uniform(Shape{2, 8, 8, 3}, 0.0, 1.0, rng);

  quant::ApproxConvSpec as;
  as.stride = 1;
  as.pad = 1;
  for (const char* mul_name : {"axm_exact", "axm_drum4_dm1"}) {
    for (const char* adder_name : {"", "axa_loa6"}) {
      EmulationPlan plan;
      ASSERT_TRUE(plan.set_by_name("ConvX", mul_name, adder_name));
      const quant::MacUnit unit = plan.find("ConvX")->unit;
      const Tensor want = quant::approx_conv2d(x, conv.weight().value, conv.params()[1]->value,
                                               as, unit);
      const EmulationScope scope(plan);
      const Tensor got = conv.forward(x, /*train=*/false);
      ASSERT_EQ(want.shape(), got.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(want.at(i), got.at(i))
            << mul_name << "/" << (adder_name[0] == '\0' ? "exact-acc" : adder_name)
            << " diverges at " << i;
      }
    }
  }
}

TEST(Emulation, BindsToEvalForwardsInsideArmedScopeOnly) {
  Rng rng(6);
  nn::Conv2DSpec cs;
  cs.in_channels = 1;
  cs.out_channels = 2;
  cs.kernel = 3;
  nn::Conv2D conv("ConvY", cs, rng);
  const Tensor x = ops::uniform(Shape{1, 6, 6, 1}, 0.0, 1.0, rng);
  const Tensor float_out = conv.forward(x, /*train=*/false);

  EmulationPlan plan;
  ASSERT_TRUE(plan.set_by_name("ConvY", "axm_drum3_jv3"));
  const EmulationScope scope(plan);
  // Unplanned layer names run float even inside a scope.
  EXPECT_EQ(active_mac_unit("SomeOtherLayer"), nullptr);
  // Train forwards ignore the armed plan (emulation is inference-only).
  const Tensor trained = conv.forward(x, /*train=*/true);
  for (std::int64_t i = 0; i < float_out.numel(); ++i) {
    ASSERT_EQ(float_out.at(i), trained.at(i));
  }
  // Eval forwards hit the emulated path.
  const Tensor emulated = conv.forward(x, /*train=*/false);
  bool differs = false;
  for (std::int64_t i = 0; i < float_out.numel(); ++i) {
    if (float_out.at(i) != emulated.at(i)) differs = true;
  }
  EXPECT_TRUE(differs) << "drum3 emulation left the conv output untouched";
}

TEST(Emulation, ScopeIsThreadLocalAndNests) {
  EXPECT_EQ(active_plan(), nullptr);
  EmulationPlan outer;
  outer.set("A", SiteUnit{});
  {
    const EmulationScope s1(outer);
    EXPECT_EQ(active_plan(), &outer);
    EXPECT_NE(active_mac_unit("A"), nullptr);
    EmulationPlan inner;
    inner.set("B", SiteUnit{});
    {
      const EmulationScope s2(inner);
      EXPECT_EQ(active_plan(), &inner);
      EXPECT_EQ(active_mac_unit("A"), nullptr);
      // Sibling threads see no armed plan.
      const EmulationPlan* seen = &inner;
      std::thread([&seen] { seen = active_plan(); }).join();
      EXPECT_EQ(seen, nullptr);
    }
    EXPECT_EQ(active_plan(), &outer);
  }
  EXPECT_EQ(active_plan(), nullptr);
}

TEST(Emulation, PlanRejectsUnknownComponentNames) {
  EmulationPlan plan;
  EXPECT_FALSE(plan.set_by_name("L", "not_a_multiplier"));
  EXPECT_FALSE(plan.set_by_name("L", "axm_drum4_dm1", "not_an_adder"));
  EXPECT_EQ(plan.size(), 0U);
  EXPECT_TRUE(plan.set_by_name("L", "axm_drum4_dm1", "axa_loa6", 8));
  ASSERT_NE(plan.find("L"), nullptr);
  EXPECT_EQ(plan.find("L")->unit.mul->info().name, "axm_drum4_dm1");
  EXPECT_EQ(plan.find("L")->unit.adder->info().name, "axa_loa6");
}

TEST(Emulation, PlanRejectsWordlengthsOutsideTheCodeRange) {
  EmulationPlan plan;
  for (const int bits : {0, -1, 9, 16, 32, 1 << 30}) {
    EXPECT_FALSE(plan.set_by_name("L", "axm_drum4_dm1", "", bits)) << bits;
  }
  EXPECT_EQ(plan.size(), 0U);
  EXPECT_TRUE(plan.set_by_name("L", "axm_drum4_dm1", "", 1));
  EXPECT_TRUE(plan.set_by_name("L", "axm_drum4_dm1", "", 8));
  ASSERT_NE(plan.find("L"), nullptr);
  EXPECT_EQ(plan.find("L")->bits, 8);
}

TEST(Emulation, DenseMatchesApproxMatmulBitwise) {
  Rng rng(8);
  nn::Dense dense("DenseZ", 12, 7, rng);
  const Tensor x = ops::uniform(Shape{5, 12}, -1.0, 1.0, rng);
  const Tensor w = dense.params()[0]->value;
  const Tensor b = dense.params()[1]->value;

  EmulationPlan plan;
  ASSERT_TRUE(plan.set_by_name("DenseZ", "axm_drum4_dm1"));
  const Tensor want = quant::approx_matmul(x, w, b, plan.find("DenseZ")->unit, 8);
  const EmulationScope scope(plan);
  const Tensor got = dense.forward(x, /*train=*/false);
  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want.at(i), got.at(i)) << "at " << i;
  }
}

TEST(Emulation, ApproxMatmulMatchesAffineOracleInBothOrientations) {
  // 64 x 7 over 12 taps lays its codes out tap-major (lanes along the 64
  // rows); 5 x 7 keeps them row-major. Both must equal the affine
  // expansion coded from scratch, through a multiplier and an adder chain.
  Rng rng(12);
  const approx::Multiplier& mul = approx::multiplier_by_name("axm_res2_14vp");
  const approx::Adder& loa = approx::adder_by_name("axa_loa6");
  for (const std::int64_t m : {64, 5}) {
    const std::int64_t k = 12;
    const std::int64_t n = 7;
    ASSERT_EQ(quant::lut_lanes(m, n, k), m == 64 ? gemm::lk::Lanes::kPositions
                                                 : gemm::lk::Lanes::kChannels);
    const Tensor a = ops::uniform(Shape{m, k}, -1.0, 1.0, rng);
    const Tensor b = ops::uniform(Shape{k, n}, -0.5, 0.5, rng);
    const Tensor bias = ops::uniform(Shape{n}, -0.1, 0.1, rng);
    const quant::QuantParams pa = quant::fit_params(a, 8);
    const quant::QuantParams pb = quant::fit_params(b, 8);
    const std::vector<std::uint32_t> qa = quant::quantize(a, pa);
    const std::vector<std::uint32_t> qb = quant::quantize(b, pb);
    for (const approx::Adder* adder : {static_cast<const approx::Adder*>(nullptr), &loa}) {
      const Tensor got = quant::approx_matmul(a, b, bias, quant::MacUnit{&mul, adder}, 8);
      for (std::int64_t i = 0; i < m; ++i) {
        std::uint64_t sum_qa = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) sum_qa += qa[static_cast<std::size_t>(i * k + kk)];
        const double row_base = pa.min * pb.min * static_cast<double>(k) +
                                pb.min * pa.step() * static_cast<double>(sum_qa);
        for (std::int64_t j = 0; j < n; ++j) {
          std::uint64_t sum_qq = 0;
          std::uint64_t sum_qw = 0;
          std::uint32_t chain = 0;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const auto x = static_cast<std::uint8_t>(qa[static_cast<std::size_t>(i * k + kk)]);
            const auto w = static_cast<std::uint8_t>(qb[static_cast<std::size_t>(kk * n + j)]);
            const std::uint32_t prod = mul.multiply(x, w);
            sum_qq += prod;
            chain = adder == nullptr ? chain + prod : adder->add(chain, prod);
            sum_qw += w;
          }
          double v = row_base;
          v += pa.min * pb.step() * static_cast<double>(sum_qw);
          v += pa.step() * pb.step() *
               (adder == nullptr ? static_cast<double>(sum_qq) : static_cast<double>(chain));
          v += bias.at(j);
          ASSERT_EQ(static_cast<float>(v), got.at(i * n + j))
              << "m " << m << (adder == nullptr ? " exact" : " loa6") << " at (" << i << ", "
              << j << ")";
        }
      }
    }
  }
}

TEST(Emulation, ClassCapsVotesMatchAffineOracleBitwise) {
  Rng rng(9);
  capsnet::ClassCapsSpec spec;
  spec.in_caps = 6;
  spec.in_dim = 4;
  spec.out_caps = 3;
  spec.out_dim = 4;
  capsnet::ClassCaps caps("CapsV", spec, rng);
  const std::int64_t n = 3;
  const Tensor x = ops::uniform(Shape{n, spec.in_caps, spec.in_dim}, -0.5, 0.5, rng);
  const Tensor& w = caps.params()[0]->value;

  EmulationPlan plan;
  ASSERT_TRUE(plan.set_by_name("CapsV", "axm_drum4_dm1"));
  const approx::Multiplier& mul = *plan.find("CapsV")->unit.mul;
  Tensor got;
  {
    const EmulationScope scope(plan);
    got = caps.forward_votes(x, /*train=*/false, nullptr);
  }
  ASSERT_EQ(got.shape(), (Shape{n, spec.in_caps, spec.out_caps, spec.out_dim}));

  // Independent oracle: quantize both operands, accumulate the code
  // products through the multiplier in exact integers, dequantize with the
  // affine expansion — the formula of quant/lut_gemm.hpp, coded from
  // scratch against raw tensors.
  const quant::QuantParams px = quant::fit_params(x, 8);
  const quant::QuantParams pw = quant::fit_params(w, 8);
  const std::vector<std::uint8_t> qx = quant::quantize_u8(x, px);
  const std::vector<std::uint8_t> qw = quant::quantize_u8(w, pw);
  const double sx = px.step();
  const double sw = pw.step();
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t i = 0; i < spec.in_caps; ++i) {
      std::uint64_t sum_qa = 0;
      for (std::int64_t p = 0; p < spec.in_dim; ++p) {
        sum_qa += qx[static_cast<std::size_t>((ni * spec.in_caps + i) * spec.in_dim + p)];
      }
      const double row_base =
          px.min * pw.min * static_cast<double>(spec.in_dim) +
          pw.min * sx * static_cast<double>(sum_qa);
      for (std::int64_t j = 0; j < spec.out_caps; ++j) {
        for (std::int64_t q = 0; q < spec.out_dim; ++q) {
          std::uint64_t sum_qq = 0;
          std::uint64_t sum_qw = 0;
          for (std::int64_t p = 0; p < spec.in_dim; ++p) {
            const std::uint8_t xa =
                qx[static_cast<std::size_t>((ni * spec.in_caps + i) * spec.in_dim + p)];
            const std::uint8_t wb = qw[static_cast<std::size_t>(
                ((i * spec.out_caps + j) * spec.in_dim + p) * spec.out_dim + q)];
            sum_qq += mul.multiply(xa, wb);
            sum_qw += wb;
          }
          double v = row_base;
          v += px.min * sw * static_cast<double>(sum_qw);
          v += sx * sw * static_cast<double>(sum_qq);
          const float want = static_cast<float>(v);
          ASSERT_EQ(want, got.at(((ni * spec.in_caps + i) * spec.out_caps + j) *
                                     spec.out_dim +
                                 q))
              << "vote (" << ni << "," << i << "," << j << "," << q << ")";
        }
      }
    }
  }
}

TEST(Emulation, ConvCaps3DVotesTrackFloatPathWithExactUnit) {
  Rng rng(10);
  capsnet::ConvCaps3DSpec spec;
  spec.in_types = 2;
  spec.in_dim = 3;
  spec.out_types = 2;
  spec.out_dim = 4;
  spec.kernel = 3;
  spec.pad = 1;
  capsnet::ConvCaps3D caps("Caps3DX", spec, rng);
  const Tensor x = ops::uniform(Shape{2, 5, 5, 2, 3}, -0.5, 0.5, rng);
  const Tensor float_out = caps.forward(x, /*train=*/false, nullptr);

  EmulationPlan exact_plan;
  ASSERT_TRUE(exact_plan.set_by_name("Caps3DX", ""));
  Tensor emulated;
  {
    const EmulationScope scope(exact_plan);
    emulated = caps.forward(x, /*train=*/false, nullptr);
  }
  ASSERT_EQ(float_out.shape(), emulated.shape());
  // Exact multiplier + exact accumulation leaves only 8-bit quantization
  // error, which squash keeps small.
  for (std::int64_t i = 0; i < float_out.numel(); ++i) {
    EXPECT_NEAR(float_out.at(i), emulated.at(i), 0.05) << "at " << i;
  }

  EmulationPlan rough_plan;
  ASSERT_TRUE(rough_plan.set_by_name("Caps3DX", "axm_mitchell3_yx7"));
  Tensor rough;
  {
    const EmulationScope scope(rough_plan);
    rough = caps.forward(x, /*train=*/false, nullptr);
  }
  bool differs = false;
  for (std::int64_t i = 0; i < float_out.numel(); ++i) {
    if (rough.at(i) != emulated.at(i)) differs = true;
  }
  EXPECT_TRUE(differs);
}

/// FNV-1a over the bit patterns of `t`'s floats, continuing from `h`.
std::uint64_t fnv1a_floats(std::uint64_t h, const Tensor& t) {
  for (const float v : t.data()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// Every emulated float of whole-model runs, pinned by value: CapsNet-tiny
// (conv1 and PrimaryCaps unpadded, ClassCaps votes) at b1/b3/b64 and
// DeepCaps-tiny (padded ConvCaps2D/3D) at b1/b4, each through three
// multipliers with exact accumulation and with an approximate adder. The
// constant was recorded before the LUT-GEMM orientation change; any kernel
// layout, lane order or dequantization rewrite must leave it unchanged.
TEST(Emulation, PinnedWholeModelDigest) {
  Rng rng(2020);
  capsnet::CapsNetModel capsnet(capsnet::CapsNetConfig::tiny(), rng);
  capsnet::DeepCapsModel deepcaps(capsnet::DeepCapsConfig::tiny(), rng);
  struct Case {
    capsnet::CapsModel* model;
    std::int64_t hw;
    std::int64_t channels;
    std::int64_t batch;
  };
  const Case cases[] = {{&capsnet, 28, 1, 1},  {&capsnet, 28, 1, 3},  {&capsnet, 28, 1, 64},
                        {&deepcaps, 16, 3, 1}, {&deepcaps, 16, 3, 4}};
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Case& c : cases) {
    const Tensor x = ops::uniform(Shape{c.batch, c.hw, c.hw, c.channels}, 0.0, 1.0, rng);
    const std::vector<core::Site> sites =
        core::extract_sites(*c.model, capsnet::slice_rows(x, 0, 1));
    for (const char* mul : {"axm_exact", "axm_drum4_dm1", "axm_res2_14vp"}) {
      for (const char* adder : {"", "axa_loa6"}) {
        EmulationPlan plan;
        for (const core::Site& site : sites) {
          if (site.kind != capsnet::OpKind::kMacOutput) continue;
          ASSERT_TRUE(plan.set_by_name(site.layer, mul, adder));
        }
        ASSERT_GE(plan.size(), 3U);
        const EmulatedBackend emu(std::move(plan));
        h = fnv1a_floats(h, emu.run(*c.model, x, 0));
      }
    }
  }
  EXPECT_EQ(h, 0xAA242826F28D324EULL);
}

TEST(Backends, NoiseBackendReproducesInjectorStream) {
  Rng rng(13);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 12;
  cfg.conv1_kernel = 5;
  cfg.primary_kernel = 5;
  capsnet::CapsNetModel model(cfg, rng);
  const Tensor x = ops::uniform(Shape{4, 12, 12, 1}, 0.0, 1.0, rng);

  std::vector<noise::InjectionRule> rules{
      noise::group_rule(capsnet::OpKind::kMacOutput, noise::NoiseSpec{0.05, 0.001})};
  const std::uint64_t seed = 2020;
  const std::uint64_t salt = 17;
  const NoiseBackend nb(rules, seed);
  const Tensor got = nb.run(model, x, salt);

  noise::GaussianInjector injector(rules, seed ^ (salt * kSaltMix));
  const Tensor want = model.infer(x, &injector);
  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want.at(i), got.at(i)) << "at " << i;
  }

  // Exact backend == hook-free inference.
  const ExactBackend ex;
  const Tensor clean = ex.run(model, x, salt);
  const Tensor plain = model.infer(x);
  for (std::int64_t i = 0; i < plain.numel(); ++i) {
    ASSERT_EQ(plain.at(i), clean.at(i));
  }
}

TEST(Backends, SweepEngineBackendEvaluationAgreesWithPointEvaluation) {
  Rng rng(14);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 12;
  cfg.conv1_kernel = 5;
  cfg.primary_kernel = 5;
  capsnet::CapsNetModel model(cfg, rng);
  data::SyntheticSpec s;
  s.hw = 12;
  s.test_count = 24;
  s.train_count = 4;
  s.seed = 15;
  const data::Dataset ds = data::make_synthetic(s);

  core::SweepEngineConfig ec;
  ec.eval_batch = 8;
  std::vector<noise::InjectionRule> rules{
      noise::group_rule(capsnet::OpKind::kMacOutput, noise::NoiseSpec{0.1, 0.0})};

  const attack::AttackSpec clean = attack::AttackSpec::none();
  core::SweepEngine a(model, ds.test_x, ds.test_y, ec);
  const double via_point = a.evaluate(clean, {core::SweepPointSpec{rules, 3}}).front();
  core::SweepEngine b(model, ds.test_x, ds.test_y, ec);
  const NoiseBackend nb(rules, ec.seed);
  const double via_backend = b.evaluate(clean, nb, 3);
  EXPECT_EQ(via_point, via_backend);

  // An empty emulation plan is the exact network: full-batch backend runs
  // must land exactly on the clean accuracy.
  const EmulatedBackend none((EmulationPlan()));
  EXPECT_EQ(b.evaluate(clean, none, 0), b.accuracy(clean));
}

TEST(Backends, CrossValidateExactSelectionsWithinTwoPp) {
  data::SyntheticSpec s;
  s.hw = 12;
  s.test_count = 64;
  s.train_count = 240;
  s.seed = 16;
  const data::Dataset ds = data::make_synthetic(s);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 12;
  cfg.conv1_kernel = 5;
  cfg.primary_kernel = 5;
  Rng rng(17);
  capsnet::CapsNetModel model(cfg, rng);
  capsnet::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  tc.lr = 3e-3;
  capsnet::train(model, ds.train_x, ds.train_y, tc);

  // A design whose every MAC selection is the accurate multiplier: the
  // noise model predicts the clean network, and behavioral emulation may
  // differ only by 8-bit quantization — the acceptance bound is 2 pp.
  core::MethodologyResult design;
  design.profiled.push_back(
      core::ProfiledComponent{&approx::exact_multiplier(), 0.0, 0.0, true});
  const Tensor probe = capsnet::slice_rows(ds.test_x, 0, 1);
  for (const core::Site& site : core::extract_sites(model, probe)) {
    core::SiteSelection sel;
    sel.site = site;
    sel.component = &approx::exact_multiplier();
    design.selections.push_back(sel);
  }

  core::CrossValidateConfig cv;
  cv.eval_batch = 16;
  const core::CrossValidationResult r =
      core::cross_validate_design(model, ds.test_x, ds.test_y, design, cv);
  ASSERT_EQ(r.entries.size(), 3U);  // Conv1, PrimaryCaps, ClassCaps MAC sites.
  for (const core::CrossValidationEntry& e : r.entries) {
    EXPECT_EQ(e.component, "axm_exact");
    EXPECT_EQ(e.predicted_accuracy, r.baseline_accuracy);
    EXPECT_LE(std::abs(e.delta_pp()), 2.0) << e.site.to_string();
  }
  EXPECT_LE(r.max_abs_delta_pp(), 2.0);
  EXPECT_LE(std::abs(r.joint_delta_pp()), 2.0);
}

}  // namespace
}  // namespace redcane::backend
