#include "tensor/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/microkernel.hpp"

namespace redcane {
namespace {

namespace mk = gemm::mk;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, NormalMomentsCloseToStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent2(19);
  (void)parent2.next_u64();  // Fork consumed one draw.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

/// Restores dispatch on scope exit.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(mk::active().target) {}
  ~DispatchGuard() { mk::force(saved_); }

 private:
  mk::Target saved_;
};

/// The scalar reference tier and, where the CPU has it, the AVX2 tier.
std::vector<mk::Target> tiers() {
  std::vector<mk::Target> out{mk::Target::kScalar};
  if (mk::supported(mk::Target::kAvx2)) out.push_back(mk::Target::kAvx2);
  return out;
}

/// fill_normal on one generator against the per-element normal() loop on
/// its twin: every float bit for bit, then the same generator state.
/// `cached` starts both with a pending second variate. Returns the draws.
std::size_t expect_matches_loop(std::uint64_t seed, std::size_t n, double mean, double stddev,
                                bool cached) {
  Rng a(seed);
  Rng b(seed);
  if (cached) {
    (void)a.normal();
    (void)b.normal();
  }
  std::vector<float> got(n);
  std::vector<float> want(n);
  a.fill_normal(got.data(), n, mean, stddev);
  for (float& v : want) v = static_cast<float>(b.normal(mean, stddev));
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << "tier " << mk::active().name << " n=" << n << " mean=" << mean
                    << " stddev=" << stddev << " cached=" << cached << ": element " << i
                    << " is " << got[i] << ", the normal() loop gives " << want[i];
      return n;
    }
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
  const double na = a.normal();
  const double nb = b.normal();
  EXPECT_EQ(std::memcmp(&na, &nb, sizeof na), 0);
  return n;
}

TEST(FillNormal, MatchesNormalLoopAcrossSizes) {
  const DispatchGuard guard;
  for (const mk::Target t : tiers()) {
    ASSERT_TRUE(mk::force(t));
    for (const std::size_t n : {0U, 1U, 2U, 3U, 511U, 512U, 513U, 262144U}) {
      for (const bool cached : {false, true}) {
        expect_matches_loop(100 + n, n, 0.25, 1.0, cached);
      }
    }
  }
}

TEST(FillNormal, MatchesNormalLoopAcrossScales) {
  const DispatchGuard guard;
  for (const mk::Target t : tiers()) {
    ASSERT_TRUE(mk::force(t));
    std::uint64_t seed = 7;
    for (const double stddev : {0.0, 1e-30, 1e-3, 1.0, 1e3}) {
      for (const double mean : {0.0, 0.7, -3.5e4}) {
        expect_matches_loop(seed++, 4099, mean, stddev, (seed & 1) != 0);
      }
    }
  }
}

TEST(FillNormal, NonFiniteParametersTakeTheScalarLoop) {
  const DispatchGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const mk::Target t : tiers()) {
    ASSERT_TRUE(mk::force(t));
    expect_matches_loop(1, 515, 0.0, inf, false);
    expect_matches_loop(2, 515, 0.0, nan, true);
    expect_matches_loop(3, 515, -inf, 1.0, false);
    expect_matches_loop(4, 515, 1.0, -inf, false);
  }
}

TEST(FillNormal, FloatMidpointFallsBackEverywhere) {
  // 1 + 2^-24 sits halfway between two floats, and stddev·z is far below
  // the rounding test's bound, so no lane can be proven: every pair takes
  // the exact fallback.
  const DispatchGuard guard;
  for (const mk::Target t : tiers()) {
    ASSERT_TRUE(mk::force(t));
    expect_matches_loop(5, 1001, 1.0 + 0x1.0p-24, 1e-20, false);
    expect_matches_loop(6, 1001, 1.0 + 0x1.0p-24, 1e-20, true);
  }
}

TEST(FillNormal, TenMillionDrawsMatchOnEveryTier) {
  const DispatchGuard guard;
  const double means[] = {0.0, 0.3, -1.7, 1e6};
  const double stddevs[] = {1.0, 0.05, 1e3, 1e-8};
  for (const mk::Target t : tiers()) {
    ASSERT_TRUE(mk::force(t));
    std::size_t draws = 0;
    for (std::uint64_t seed = 0; draws < 10000000; ++seed) {
      draws += expect_matches_loop(seed * 7919 + 1, 262143 + seed % 3, means[seed % 4],
                                   stddevs[(seed / 4) % 4], seed % 5 == 0);
    }
  }
}

}  // namespace
}  // namespace redcane
