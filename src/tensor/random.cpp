#include "tensor/random.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/microkernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define REDCANE_RNG_X86 1
#include <immintrin.h>
#else
#define REDCANE_RNG_X86 0
#endif

namespace redcane {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// One xoshiro256** step on state `s`.
inline std::uint64_t xoshiro_next(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// 53 high bits -> double in [0, 1).
inline double unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

/// The two uniforms of one Box–Muller pair, in stream order. u1 > 0, so
/// its log is finite.
inline void pair_uniforms(std::uint64_t* s, double& u1, double& u2) {
  u1 = unit(xoshiro_next(s));
  while (u1 <= 0.0) u1 = unit(xoshiro_next(s));
  u2 = unit(xoshiro_next(s));
}

/// The scalar Box–Muller pair on libm: the reference every fill_normal
/// tier reproduces.
inline void box_muller(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  s = r * std::sin(theta);
  c = r * std::cos(theta);
}

#if REDCANE_RNG_X86

// Pairs staged per fill_normal chunk; a multiple of the AVX2 group of 4.
constexpr std::size_t kChunk = 256;

// ------------------------------------------------------------- avx2 tier
// Four Box–Muller pairs per iteration: fdlibm's log (e_log.c) and its sin
// and cos kernels (k_sin.c, k_cos.c) after a two-part Cody–Waite reduction
// mod π/2, on the same uniforms and the same θ = (2π)·u2 product as
// box_muller().
//
// Rounding test. Let z be the scalar variate and z' this one. libm's and
// fdlibm's log, cos and sin are each within about 1 ulp, and the reduction
// adds < 1e-25 absolute, so r' = r(1 + δ) with |δ| < 2^-51 and |cos' − cos|,
// |sin' − sin| < 2^-52 absolute. With r < 8.6 (u1 ≥ 2^-53):
//     |z − z'| < 2^-50·|z'| + 8.6·2^-52 < 2^-48·(|z'| + 1),
// 256× inside the first term of
//     B = |stddev|·2^-40·(|z'| + 1) + 2^-48·(|mean| + |stddev·z'|) + 2^-1022.
// Each side rounds mean + stddev·z twice and the test rounds v' ± B once:
// at most 5·2^-53·(|mean| + |stddev·z'|), 6× inside the second term. The
// 2^-1022 term covers subnormal roundings and keeps B > 0. So the scalar
// v lies in [v' − B, v' + B] after rounding, and since double -> float
// rounding is monotonic, equal float bit patterns at both ends prove
// (float)v. Bit patterns, not ==, so an interval across zero (−0.0f vs
// +0.0f) falls back. A compiler that contracts products into fmas only
// removes roundings, which the bound does not rely on. About 1.3e-4 pairs
// per draw fall back.

__attribute__((target("avx2,fma"))) inline __m256d log_avx2(__m256d x) {
  // x = 2^k·(1 + f) with √2/2 ≤ 1 + f < √2; x is a positive normal here.
  const __m256i bits = _mm256_castpd_si256(x);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
                      _mm256_set1_epi64x(0x3FF0000000000000LL)));
  // Biased exponent e read as 2^52 + e, then k = e − 1023 exactly.
  __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52 + 1023.0));
  const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(M_SQRT2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  k = _mm256_add_pd(k, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));  // Exact (Sterbenz).

  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_fmadd_pd(w, _mm256_set1_pd(1.531383769920937332e-01),  // Lg6
                               _mm256_set1_pd(2.222219843214978396e-01));    // Lg4
  t1 = _mm256_fmadd_pd(w, t1, _mm256_set1_pd(3.999999999940941908e-01));     // Lg2
  t1 = _mm256_mul_pd(w, t1);
  __m256d t2 = _mm256_fmadd_pd(w, _mm256_set1_pd(1.479819860511658591e-01),  // Lg7
                               _mm256_set1_pd(1.818357216161805012e-01));    // Lg5
  t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(2.857142874366239149e-01));     // Lg3
  t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(6.666666666666735130e-01));     // Lg1
  t2 = _mm256_mul_pd(z, t2);
  const __m256d R = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  // log(x) = k·ln2_hi − ((hfsq − (s·(hfsq + R) + k·ln2_lo)) − f)
  const __m256d lo = _mm256_fmadd_pd(k, _mm256_set1_pd(1.90821492927058770002e-10),
                                     _mm256_mul_pd(s, _mm256_add_pd(hfsq, R)));
  return _mm256_fmsub_pd(k, _mm256_set1_pd(6.93147180369123816490e-01),
                         _mm256_sub_pd(_mm256_sub_pd(hfsq, lo), f));
}

__attribute__((target("avx2,fma"))) inline void sincos_avx2(__m256d t, __m256d& sin_t,
                                                             __m256d& cos_t) {
  // t = q·π/2 + y, |y| ≲ π/4, t in [0, 2π). q·pio2_1 is exact (33-bit
  // constant, q ≤ 4) and so is t − q·pio2_1 (Sterbenz).
  const __m256d q = _mm256_round_pd(_mm256_mul_pd(t, _mm256_set1_pd(M_2_PI)),
                                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d y = _mm256_fnmadd_pd(q, _mm256_set1_pd(6.07710050650619224932e-11),  // pio2_1t
                                     _mm256_fnmadd_pd(q, _mm256_set1_pd(1.57079632673412561417),
                                                      t));  // pio2_1
  const __m256d z = _mm256_mul_pd(y, y);

  // __kernel_sin(y, 0, 0) = y + y^3·(S1 + z·(S2 + ... + z·S6)).
  __m256d rs = _mm256_fmadd_pd(z, _mm256_set1_pd(1.58969099521155010221e-10),     // S6
                               _mm256_set1_pd(-2.50507602534068634195e-08));      // S5
  rs = _mm256_fmadd_pd(z, rs, _mm256_set1_pd(2.75573137070700676789e-06));        // S4
  rs = _mm256_fmadd_pd(z, rs, _mm256_set1_pd(-1.98412698298579493134e-04));       // S3
  rs = _mm256_fmadd_pd(z, rs, _mm256_set1_pd(8.33333333332248946124e-03));        // S2
  rs = _mm256_fmadd_pd(z, rs, _mm256_set1_pd(-1.66666666666666324348e-01));       // S1
  const __m256d sn = _mm256_fmadd_pd(_mm256_mul_pd(z, y), rs, y);

  // __kernel_cos(y, 0) = (1 − qx) − ((z/2 − qx) − z·r), qx = 0 for |y| < 0.3,
  // else about |y|/4 (0.28125 above 0.78125), which keeps it within 1 ulp.
  __m256d rc = _mm256_fmadd_pd(z, _mm256_set1_pd(-1.13596475577881948265e-11),    // C6
                               _mm256_set1_pd(2.08757232129817482790e-09));       // C5
  rc = _mm256_fmadd_pd(z, rc, _mm256_set1_pd(-2.75573143513906633035e-07));       // C4
  rc = _mm256_fmadd_pd(z, rc, _mm256_set1_pd(2.48015872894767294178e-05));        // C3
  rc = _mm256_fmadd_pd(z, rc, _mm256_set1_pd(-1.38888888888741095749e-03));       // C2
  rc = _mm256_fmadd_pd(z, rc, _mm256_set1_pd(4.16666666666666019037e-02));        // C1
  rc = _mm256_mul_pd(z, rc);
  const __m256d ay = _mm256_andnot_pd(_mm256_set1_pd(-0.0), y);
  __m256d qx = _mm256_castsi256_pd(
      _mm256_and_si256(_mm256_sub_epi64(_mm256_castpd_si256(ay),
                                        _mm256_set1_epi64x(0x0020000000000000LL)),
                       _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ULL))));
  qx = _mm256_blendv_pd(qx, _mm256_set1_pd(0.28125),
                        _mm256_cmp_pd(ay, _mm256_set1_pd(0.78125), _CMP_GT_OQ));
  qx = _mm256_and_pd(qx, _mm256_cmp_pd(ay, _mm256_set1_pd(0x1.33333p-2), _CMP_GE_OQ));
  const __m256d hz = _mm256_fmsub_pd(_mm256_set1_pd(0.5), z, qx);
  const __m256d cs = _mm256_sub_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), qx),
                                   _mm256_fnmadd_pd(z, rc, hz));

  // Quadrant n = q mod 4: odd n swaps sin and cos; sin flips sign for
  // n in {2, 3}, cos for n in {1, 2}.
  const __m256i qi = _mm256_castpd_si256(_mm256_add_pd(q, _mm256_set1_pd(0x1.0p52)));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(qi, one), one));
  const __m256d sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(qi, two), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(_mm256_add_epi64(qi, one), two), 62));
  sin_t = _mm256_xor_pd(_mm256_blendv_pd(sn, cs, swap), sin_sign);
  cos_t = _mm256_xor_pd(_mm256_blendv_pd(cs, sn, swap), cos_sign);
}

/// Stores (float)(mean + stddev·z) in `f` and returns the 4-bit mask of
/// lanes the rounding test proves.
__attribute__((target("avx2,fma"))) inline int proven_avx2(__m256d z, __m256d mean,
                                                           __m256d stddev, __m256d c_abs,
                                                           __m256d c_rel, __m128& f) {
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d sz = _mm256_mul_pd(stddev, z);
  const __m256d v = _mm256_add_pd(mean, sz);
  const __m256d bound = _mm256_fmadd_pd(
      c_rel, _mm256_add_pd(_mm256_and_pd(z, abs_mask), _mm256_set1_pd(1.0)),
      _mm256_fmadd_pd(_mm256_set1_pd(0x1.0p-48), _mm256_and_pd(sz, abs_mask), c_abs));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(v, bound));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(v, bound));
  f = lo;
  return _mm_movemask_ps(
      _mm_castsi128_ps(_mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi))));
}

/// Box–Muller floats of `groups` groups of 4 staged pairs into out (cos
/// then sin per pair). Writes the indices of unproven pairs to `redo` and
/// returns their count.
__attribute__((target("avx2,fma"))) std::size_t pairs_avx2(const double* u1, const double* u2,
                                                           std::size_t groups, double mean,
                                                           double stddev, float* out,
                                                           std::uint32_t* redo) {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vstddev = _mm256_set1_pd(stddev);
  const __m256d c_rel = _mm256_set1_pd(std::fabs(stddev) * 0x1.0p-40);
  const __m256d c_abs = _mm256_set1_pd(std::fabs(mean) * 0x1.0p-48 + 0x1.0p-1022);
  std::size_t nredo = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), log_avx2(_mm256_load_pd(u1 + 4 * g))));
    __m256d sin_t;
    __m256d cos_t;
    sincos_avx2(_mm256_mul_pd(_mm256_set1_pd(2.0 * M_PI), _mm256_load_pd(u2 + 4 * g)), sin_t,
                cos_t);
    __m128 fc;
    __m128 fs;
    const int ok = proven_avx2(_mm256_mul_pd(r, cos_t), vmean, vstddev, c_abs, c_rel, fc) &
                   proven_avx2(_mm256_mul_pd(r, sin_t), vmean, vstddev, c_abs, c_rel, fs);
    _mm_store_ps(out + 8 * g, _mm_unpacklo_ps(fc, fs));
    _mm_store_ps(out + 8 * g + 4, _mm_unpackhi_ps(fc, fs));
    for (unsigned bad = ~static_cast<unsigned>(ok) & 0xFU; bad != 0; bad &= bad - 1) {
      redo[nredo++] = static_cast<std::uint32_t>(4 * g) +
                      static_cast<std::uint32_t>(__builtin_ctz(bad));
    }
  }
  return nredo;
}

#endif  // REDCANE_RNG_X86

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is the only invalid state for xoshiro; splitmix64 cannot
  // produce four zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return xoshiro_next(s_); }

double Rng::uniform() { return unit(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n + 1) % n;
  std::uint64_t x = next_u64();
  while (x > limit) x = next_u64();
  return x % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  pair_uniforms(s_, u1, u2);
  double c = 0.0;
  box_muller(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

void Rng::fill_normal(float* out, std::size_t n, double mean, double stddev) {
  std::size_t i = 0;
  if (i < n && has_cached_normal_) out[i++] = static_cast<float>(normal(mean, stddev));
#if REDCANE_RNG_X86
  if (n - i >= 2 && std::isfinite(mean) && std::isfinite(stddev) &&
      gemm::mk::active().target == gemm::mk::Target::kAvx2) {
    alignas(32) double u1[kChunk];
    alignas(32) double u2[kChunk];
    alignas(32) float vals[2 * kChunk];
    std::uint32_t redo[kChunk];
    // A local copy of the state keeps the xoshiro steps in registers.
    std::uint64_t s[4];
    std::memcpy(s, s_, sizeof s);
    while (n - i >= 2) {
      const std::size_t pairs = std::min(kChunk, (n - i) / 2);
      for (std::size_t j = 0; j < pairs; ++j) pair_uniforms(s, u1[j], u2[j]);
      const std::size_t padded = (pairs + 3) & ~std::size_t{3};
      std::fill(u1 + pairs, u1 + padded, 0.5);  // Lanes past `pairs` are discarded.
      std::fill(u2 + pairs, u2 + padded, 0.0);
      const std::size_t nredo = pairs_avx2(u1, u2, padded / 4, mean, stddev, vals, redo);
      for (std::size_t k = 0; k < nredo; ++k) {
        const std::size_t j = redo[k];
        if (j >= pairs) continue;
        double c = 0.0;
        double sn = 0.0;
        box_muller(u1[j], u2[j], c, sn);
        vals[2 * j] = static_cast<float>(mean + stddev * c);
        vals[2 * j + 1] = static_cast<float>(mean + stddev * sn);
      }
      std::memcpy(out + i, vals, 2 * pairs * sizeof(float));
      i += 2 * pairs;
    }
    std::memcpy(s_, s, sizeof s);
  }
#endif
  // The scalar tier, and an odd tail, whose cached sine stays libm's.
  for (; i < n; ++i) out[i] = static_cast<float>(normal(mean, stddev));
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace redcane
