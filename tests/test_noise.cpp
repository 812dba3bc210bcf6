#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>

#include "noise/injector.hpp"
#include "noise/noise_model.hpp"
#include "noise/range_recorder.hpp"
#include "tensor/ops.hpp"
#include "tensor/stats.hpp"

namespace redcane::noise {
namespace {

using capsnet::OpKind;

TEST(NoiseModel, ZeroSpecIsIdentity) {
  Rng rng(1);
  Tensor x = ops::uniform(Shape{100}, -1.0, 1.0, rng);
  const Tensor before = x;
  Rng nrng(2);
  inject_noise(x, NoiseSpec{0.0, 0.0}, nrng);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x.at(i), before.at(i));
}

TEST(NoiseModel, StatisticsMatchEq3) {
  // X' - X must have std ~= NM * R(X) and mean ~= NA * R(X).
  Rng rng(3);
  Tensor x = ops::uniform(Shape{200000}, -2.0, 6.0, rng);  // R ~= 8.
  const Tensor before = x;
  const stats::Moments mx = stats::moments(before);
  Rng nrng(4);
  const NoiseSpec spec{0.05, 0.01};
  inject_noise(x, spec, nrng);
  const Tensor delta = ops::sub(x, before);
  const stats::Moments md = stats::moments(delta);
  EXPECT_NEAR(md.stddev, spec.nm * mx.range(), 0.01);
  EXPECT_NEAR(md.mean, spec.na * mx.range(), 0.01);
}

TEST(NoiseModel, ConstantTensorUntouched) {
  Tensor x(Shape{10}, 3.0F);  // R(X) = 0.
  Rng nrng(5);
  inject_noise(x, NoiseSpec{0.5, 0.5}, nrng);
  for (float v : x.data()) EXPECT_EQ(v, 3.0F);
}

TEST(NoiseModel, NoiseScalesWithRange) {
  Rng rng(6);
  Tensor small = ops::uniform(Shape{50000}, 0.0, 1.0, rng);
  Tensor large = ops::uniform(Shape{50000}, 0.0, 100.0, rng);
  const Tensor small0 = small;
  const Tensor large0 = large;
  Rng r1(7);
  Rng r2(7);
  inject_noise(small, NoiseSpec{0.1, 0.0}, r1);
  inject_noise(large, NoiseSpec{0.1, 0.0}, r2);
  const double sd_small = stats::moments(ops::sub(small, small0)).stddev;
  const double sd_large = stats::moments(ops::sub(large, large0)).stddev;
  EXPECT_NEAR(sd_large / sd_small, 100.0, 5.0);
}

TEST(NoiseModel, NaNElementDoesNotSpreadThroughTheRange) {
  // R(X) skips NaN wherever it sits: the other elements stay finite.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t pos = 0; pos < 8; ++pos) {
    Tensor x(Shape{8}, {0.0F, 1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F, 7.0F});
    x.at(pos) = nan;
    Rng nrng(15);
    inject_noise(x, NoiseSpec{0.1, 0.05}, nrng);
    for (std::int64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(std::isfinite(x.at(i)), i != pos) << "NaN at " << pos << ", element " << i;
    }
  }
  Tensor all(Shape{3}, std::numeric_limits<float>::quiet_NaN());
  Rng nrng(16);
  inject_noise(all, NoiseSpec{0.1, 0.0}, nrng);
  EXPECT_EQ(nrng.next_u64(), Rng(16).next_u64());  // Range 0: no draws.
}

// FNV-1a over float bit patterns.
std::uint64_t fnv1a(std::uint64_t h, std::span<const float> xs) {
  for (const float x : xs) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(NoiseModel, PinnedStreamDigest) {
  // Pins the noise stream bit for bit: every sweep digest depends on it.
  // Recorded from the scalar per-element Box–Muller loop; a vector sampler
  // must reproduce it on every dispatch tier. Odd sizes leave a cached
  // variate that the next injection consumes first.
  struct Case {
    std::uint64_t seed;
    Shape shape;
    double nm;
    double na;
  };
  const Case cases[] = {
      {1, Shape{4096}, 0.1, 0.0},        {2, Shape{3, 17}, 0.05, 0.01},
      {3, Shape{2, 8, 8, 5}, 0.5, -0.2}, {4, Shape{1}, 0.2, 0.0},
      {5, Shape{1000}, 1e-3, 0.0},       {6, Shape{7, 73}, 1e-6, 0.3},
  };
  std::uint64_t h = 0xCBF29CE484222325ULL;
  Rng noise_rng(2024);
  for (const Case& c : cases) {
    Rng data_rng(c.seed);
    Tensor x = ops::uniform(c.shape, -1.0, 3.0, data_rng);
    inject_noise(x, NoiseSpec{c.nm, c.na}, noise_rng);
    h = fnv1a(h, x.data());
    Rng own(c.seed + 100);
    Tensor y = ops::uniform(c.shape, 0.0, 1.0, own);
    inject_noise(y, NoiseSpec{c.nm, c.na}, own);
    h = fnv1a(h, y.data());
  }
  const float tail[] = {static_cast<float>(noise_rng.normal()),
                        static_cast<float>(noise_rng.next_u64() >> 40)};
  h = fnv1a(h, tail);
  EXPECT_EQ(h, 0x20D70BCD392A2C0EULL);
}

TEST(Injector, GroupRuleHitsOnlyItsKind) {
  GaussianInjector inj({group_rule(OpKind::kSoftmax, NoiseSpec{0.2, 0.0})}, 1);
  Rng rng(8);
  Tensor a = ops::uniform(Shape{100}, 0.0, 1.0, rng);
  const Tensor a0 = a;
  inj.process("any", OpKind::kMacOutput, a);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), a0.at(i));
  inj.process("any", OpKind::kSoftmax, a);
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) diff += std::abs(a.at(i) - a0.at(i));
  EXPECT_GT(diff, 0.0);
  EXPECT_EQ(inj.injections(), 1);
  EXPECT_EQ(inj.sites_visited(), 2);
}

TEST(Injector, LayerRuleHitsOnlyItsLayer) {
  GaussianInjector inj({layer_rule(OpKind::kMacOutput, "Caps2D3", NoiseSpec{0.2, 0.0})}, 2);
  Rng rng(9);
  Tensor a = ops::uniform(Shape{64}, 0.0, 1.0, rng);
  const Tensor a0 = a;
  inj.process("Caps2D2", OpKind::kMacOutput, a);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), a0.at(i));
  inj.process("Caps2D3", OpKind::kMacOutput, a);
  EXPECT_EQ(inj.injections(), 1);
}

TEST(Injector, FirstMatchingRuleWins) {
  GaussianInjector inj(
      {layer_rule(OpKind::kMacOutput, "L1", NoiseSpec{0.0, 0.0}),  // Explicit no-noise.
       group_rule(OpKind::kMacOutput, NoiseSpec{0.5, 0.0})},
      3);
  Rng rng(10);
  Tensor a = ops::uniform(Shape{64}, 0.0, 1.0, rng);
  const Tensor a0 = a;
  inj.process("L1", OpKind::kMacOutput, a);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), a0.at(i));
  EXPECT_EQ(inj.injections(), 0);
}

TEST(Injector, DeterministicForSeed) {
  Rng rng(11);
  const Tensor base = ops::uniform(Shape{64}, 0.0, 1.0, rng);
  Tensor a = base;
  Tensor b = base;
  GaussianInjector inj_a({group_rule(OpKind::kActivation, NoiseSpec{0.1, 0.0})}, 42);
  GaussianInjector inj_b({group_rule(OpKind::kActivation, NoiseSpec{0.1, 0.0})}, 42);
  inj_a.process("x", OpKind::kActivation, a);
  inj_b.process("x", OpKind::kActivation, b);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(RangeRecorderTest, MomentsAndReservoir) {
  RangeRecorder rec(100, 1);
  Rng rng(12);
  Tensor x = ops::uniform(Shape{1000}, -1.0, 3.0, rng);
  rec.process("conv", OpKind::kActivation, x);
  const SiteRecord& r = rec.record("conv", OpKind::kActivation);
  EXPECT_EQ(r.count, 1000);
  EXPECT_EQ(r.reservoir.size(), 100U);
  const stats::Moments m = r.moments();
  EXPECT_NEAR(m.mean, 1.0, 0.1);
  EXPECT_GT(m.max, 2.5);
  EXPECT_LT(m.min, -0.5);
}

TEST(RangeRecorderTest, PooledSamplesMergeSitesOfKind) {
  RangeRecorder rec(50, 2);
  Rng rng(13);
  Tensor a = ops::uniform(Shape{100}, 0.0, 1.0, rng);
  Tensor b = ops::uniform(Shape{100}, 0.0, 1.0, rng);
  rec.process("l1", OpKind::kActivation, a);
  rec.process("l2", OpKind::kActivation, b);
  rec.process("l3", OpKind::kSoftmax, a);
  EXPECT_EQ(rec.pooled_samples(OpKind::kActivation).size(), 100U);
  EXPECT_EQ(rec.pooled_samples(OpKind::kSoftmax).size(), 50U);
}

TEST(RangeRecorderTest, DoesNotPerturb) {
  RangeRecorder rec;
  Rng rng(14);
  Tensor x = ops::uniform(Shape{64}, 0.0, 1.0, rng);
  const Tensor x0 = x;
  rec.process("l", OpKind::kMacOutput, x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x.at(i), x0.at(i));
}

}  // namespace
}  // namespace redcane::noise
