#include "tensor/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace redcane {
namespace {

TEST(Moments, SimpleSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const stats::Moments m = stats::moments(std::span<const double>(xs));
  EXPECT_DOUBLE_EQ(m.mean, 2.5);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 4.0);
  EXPECT_DOUBLE_EQ(m.range(), 3.0);
  EXPECT_NEAR(m.stddev, 1.1180339887, 1e-9);
  EXPECT_EQ(m.count, 4);
}

TEST(Moments, EmptyIsZero) {
  const std::vector<double> xs;
  const stats::Moments m = stats::moments(std::span<const double>(xs));
  EXPECT_EQ(m.count, 0);
  EXPECT_EQ(m.mean, 0.0);
}

TEST(Moments, TensorOverload) {
  const Tensor t(Shape{3}, {-1.0F, 0.0F, 1.0F});
  const stats::Moments m = stats::moments(t);
  EXPECT_DOUBLE_EQ(m.mean, 0.0);
  EXPECT_DOUBLE_EQ(m.range(), 2.0);
}

TEST(Range, EqualsOneSequentialPassOnRandomTensors) {
  // The reference is the single std::min/max chain seeded from element 0.
  // Odd trials clamp negatives to +0 or -0 at random, so a zero extremum's
  // sign must also match.
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<std::int64_t>(1 + rng.uniform_index(300));
    Tensor t = ops::gaussian(Shape{n}, rng.uniform(-5.0, 5.0), rng.uniform(0.0, 3.0), rng);
    if (trial % 2 == 1) {
      for (float& v : t.data()) {
        if (v < 0.0F) v = rng.uniform() < 0.5 ? 0.0F : -0.0F;
      }
    }
    double lo = t.at(0);
    double hi = t.at(0);
    for (const float v : t.data()) {
      lo = std::min(lo, static_cast<double>(v));
      hi = std::max(hi, static_cast<double>(v));
    }
    const stats::Range r = stats::range(t);
    EXPECT_EQ(r.min, lo);
    EXPECT_EQ(r.max, hi);
    EXPECT_EQ(std::signbit(r.min), std::signbit(lo)) << "trial " << trial;
    EXPECT_EQ(std::signbit(r.max), std::signbit(hi)) << "trial " << trial;
    const stats::Moments m = stats::moments(t);
    EXPECT_EQ(m.min, r.min);
    EXPECT_EQ(m.max, r.max);
    EXPECT_EQ(r.width(), m.range());
  }
}

TEST(Range, SkipsNaNAtEveryPosition) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t pos = 0; pos < 8; ++pos) {
    Tensor t(Shape{8}, {-2.0F, 1.0F, 3.0F, 0.5F, -1.0F, 2.0F, 0.0F, 1.5F});
    const float dropped = t.at(pos);
    t.at(pos) = nan;
    const stats::Range r = stats::range(t);
    EXPECT_EQ(r.min, dropped == -2.0F ? -1.0 : -2.0) << "NaN at " << pos;
    EXPECT_EQ(r.max, dropped == 3.0F ? 2.0 : 3.0) << "NaN at " << pos;
    const stats::Moments m = stats::moments(t);
    EXPECT_EQ(m.min, r.min);
    EXPECT_EQ(m.max, r.max);
  }
}

TEST(Range, EmptyAndAllNaNAreZero) {
  const std::vector<float> none;
  const stats::Range e = stats::range(std::span<const float>(none));
  EXPECT_EQ(e.min, 0.0);
  EXPECT_EQ(e.max, 0.0);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> all_nan{nan, nan, nan};
  const stats::Range a = stats::range(std::span<const float>(all_nan));
  EXPECT_EQ(a.min, 0.0);
  EXPECT_EQ(a.max, 0.0);
  EXPECT_EQ(a.width(), 0.0);
}

TEST(Range, SignedZeroExtremumIsTheFirstSeen) {
  const std::vector<float> xs{0.0F, -0.0F, 1.0F};
  EXPECT_FALSE(std::signbit(stats::range(std::span<const float>(xs)).min));
  const std::vector<float> ys{-0.0F, 0.0F, 1.0F};
  EXPECT_TRUE(std::signbit(stats::range(std::span<const float>(ys)).min));
  // Zeros far apart, so they land in different min/max chains.
  for (std::size_t first = 0; first < 19; ++first) {
    std::vector<float> pos(37, 2.0F);
    std::vector<float> neg(37, -2.0F);
    pos[first] = -0.0F;
    pos[first + 11] = 0.0F;
    neg[first] = 0.0F;
    neg[first + 17] = -0.0F;
    const stats::Range rp = stats::range(std::span<const float>(pos));
    const stats::Range rn = stats::range(std::span<const float>(neg));
    EXPECT_TRUE(std::signbit(rp.min)) << first;
    EXPECT_EQ(rp.max, 2.0);
    EXPECT_FALSE(std::signbit(rn.max)) << first;
    EXPECT_EQ(rn.min, -2.0);
  }
}

TEST(Histogram, CountsAndClamping) {
  stats::Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(15.0);   // clamped to bin 9
  EXPECT_EQ(h.count(0), 2);
  EXPECT_EQ(h.count(9), 2);
  EXPECT_EQ(h.total(), 4);
}

TEST(Histogram, BinCenters) {
  const stats::Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, Frequencies) {
  stats::Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.25);
  h.add(0.75);
  EXPECT_NEAR(h.frequency(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.frequency(1), 1.0 / 3.0, 1e-12);
}

TEST(GaussianFit, NormalSamplesScoreWell) {
  Rng rng(1);
  stats::Histogram h(-5.0, 5.0, 64);
  for (int i = 0; i < 100000; ++i) h.add(rng.normal());
  EXPECT_LT(stats::gaussian_fit_distance(h, 0.0, 1.0), 0.05);
}

TEST(GaussianFit, UniformSamplesScoreWorse) {
  Rng rng(1);
  stats::Histogram h(-5.0, 5.0, 64);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform(-4.0, 4.0));
  const stats::Moments m = [] {
    Rng r2(1);
    std::vector<double> xs;
    for (int i = 0; i < 100000; ++i) xs.push_back(r2.uniform(-4.0, 4.0));
    return stats::moments(std::span<const double>(xs));
  }();
  EXPECT_GT(stats::gaussian_fit_distance(h, m.mean, m.stddev), 0.2);
}

TEST(GaussianFit, ExpectedCountsSumToTotal) {
  const stats::Histogram h(-4.0, 4.0, 32);
  const std::vector<double> exp = stats::gaussian_expected_counts(h, 0.0, 1.0, 1000);
  double sum = 0.0;
  for (double e : exp) sum += e;
  EXPECT_NEAR(sum, 1000.0, 1.0);  // Mass within +/-4 sigma.
}

TEST(GaussianFit, DegenerateStddevPutsMassAtMean) {
  stats::Histogram h(-1.0, 1.0, 4);
  h.add(0.6);
  const std::vector<double> exp = stats::gaussian_expected_counts(h, 0.6, 0.0, 10);
  EXPECT_DOUBLE_EQ(exp[3], 10.0);
}

}  // namespace
}  // namespace redcane
