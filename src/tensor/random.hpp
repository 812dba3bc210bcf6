// Deterministic random number generation for the ReD-CaNe reproduction.
//
// Every stochastic component (weight init, synthetic datasets, noise
// injection, error profiling) draws from an explicitly seeded Rng so that
// experiments are bit-reproducible run to run. The generator is
// xoshiro256** (Blackman & Vigna), chosen for speed and quality; we do not
// use std::mt19937 because its state is large and its distributions are
// implementation-defined across standard libraries.
#pragma once

#include <cstddef>
#include <cstdint>

namespace redcane {

/// xoshiro256** pseudo-random generator with explicit seeding and
/// portable, implementation-independent distributions.
class Rng {
 public:
  /// Seeds via splitmix64 expansion of `seed` (any value is acceptable).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// out[i] = static_cast<float>(normal(mean, stddev)) for i < n, bit for
  /// bit, leaving the generator (cached second variate included) as that
  /// loop would. Under AVX2 dispatch (gemm::mk::active()) a vector
  /// Box–Muller keeps each float only where a rounding test proves it equal
  /// to the scalar one, and recomputes the rest exactly (see random.cpp).
  void fill_normal(float* out, std::size_t n, double mean, double stddev);

  /// Forks a statistically independent child stream; used to hand each
  /// injection site / worker its own generator.
  Rng fork();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace redcane
