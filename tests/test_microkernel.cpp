// Microkernel dispatch + edge-tail coverage (tensor/microkernel.hpp).
//
// The contract under test: every dispatch target computes every C element
// as one fused-multiply-add chain in ascending k, so for a fixed blocking
// the results of gemm_f32 / gemm_batched_f32 are BIT-identical across
// kScalar / kSse / kAvx2 — and bit-identical to a naive fmaf-chain
// reference, for every M/N/K tail shape and every transpose/accumulate
// variant. This is what keeps the sweep engine's replay exactness and the
// serving runtime's worker-count identity independent of the machine's
// vector ISA for a given build.
#include "tensor/microkernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace redcane {
namespace {

namespace mk = gemm::mk;

/// Restores the previously-active dispatch target on scope exit so a
/// failing test cannot leak a forced target into later tests.
class ForcedTarget {
 public:
  explicit ForcedTarget(mk::Target t) : prev_(mk::active().target) {
    forced_ = mk::force(t);
  }
  ~ForcedTarget() { mk::force(prev_); }
  [[nodiscard]] bool ok() const { return forced_; }

 private:
  mk::Target prev_;
  bool forced_ = false;
};

std::vector<mk::Target> supported_targets() {
  std::vector<mk::Target> out;
  for (mk::Target t : {mk::Target::kScalar, mk::Target::kSse, mk::Target::kAvx2}) {
    if (mk::supported(t)) out.push_back(t);
  }
  return out;
}

/// The semantic oracle: op(A) * op(B) + beta * C with one std::fmaf chain
/// in ascending k per element — exactly what every microkernel target is
/// specified to compute, so comparisons are bitwise, not tolerance-based.
Tensor reference_gemm_fma(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                          std::int64_t k, const Tensor& a, const Tensor& b, float beta,
                          const Tensor& c0) {
  Tensor c = beta == 0.0F ? Tensor(Shape{m, n}) : c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = beta == 0.0F ? 0.0F : c.at(i * n + j);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a.at(kk * m + i) : a.at(i * k + kk);
        const float bv = trans_b ? b.at(j * k + kk) : b.at(kk * n + j);
        acc = std::fmaf(av, bv, acc);
      }
      c.at(i * n + j) = acc;
    }
  }
  return c;
}

// Shapes chosen to exercise every tail class of the 6x16 register tile and
// the 96/256/192 cache blocking: sub-tile, exact-tile, tile+1, multi-block
// (large multi-block shapes also split row blocks across the compute pool).
const std::array<std::array<std::int64_t, 3>, 12> kShapes = {{{1, 1, 1},
                                                              {1, 17, 5},
                                                              {3, 5, 2},
                                                              {5, 16, 7},
                                                              {6, 16, 32},
                                                              {7, 17, 33},
                                                              {6, 32, 192},
                                                              {13, 31, 193},
                                                              {96, 256, 64},
                                                              {97, 257, 50},
                                                              {2, 300, 9},
                                                              {200, 33, 40}}};

TEST(Microkernel, EveryTargetMatchesFmaReferenceOnEveryTailShape) {
  Rng rng(21);
  for (const mk::Target target : supported_targets()) {
    const ForcedTarget forced(target);
    ASSERT_TRUE(forced.ok());
    for (const auto& [m, n, k] : kShapes) {
      for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
          for (const float beta : {0.0F, 1.0F}) {
            const Tensor a = trans_a ? ops::uniform(Shape{k, m}, -1.0, 1.0, rng)
                                     : ops::uniform(Shape{m, k}, -1.0, 1.0, rng);
            const Tensor b = trans_b ? ops::uniform(Shape{n, k}, -1.0, 1.0, rng)
                                     : ops::uniform(Shape{k, n}, -1.0, 1.0, rng);
            const Tensor c0 = ops::uniform(Shape{m, n}, -1.0, 1.0, rng);
            const Tensor want =
                reference_gemm_fma(trans_a, trans_b, m, n, k, a, b, beta, c0);
            Tensor got = c0;
            gemm::gemm_f32(trans_a, trans_b, m, n, k, a.data().data(), b.data().data(),
                           beta, got.data().data());
            for (std::int64_t i = 0; i < m * n; ++i) {
              ASSERT_EQ(got.at(i), want.at(i))
                  << mk::active().name << " m=" << m << " n=" << n << " k=" << k
                  << " ta=" << trans_a << " tb=" << trans_b << " beta=" << beta
                  << " at " << i;
            }
          }
        }
      }
    }
  }
}

TEST(Microkernel, ScalarFallbackAgreesBitwiseWithSimdDispatch) {
  // The cross-target identity guarantee, asserted directly: force the
  // scalar fallback, then the best SIMD target, and require bitwise-equal
  // outputs. On machines with no SIMD target this degenerates to
  // scalar-vs-scalar (still a valid run, trivially equal).
  Rng rng(22);
  const std::vector<mk::Target> targets = supported_targets();
  const mk::Target best = targets.back();
  for (const auto& [m, n, k] : kShapes) {
    const Tensor a = ops::uniform(Shape{m, k}, -2.0, 2.0, rng);
    const Tensor b = ops::uniform(Shape{k, n}, -2.0, 2.0, rng);
    Tensor c_scalar(Shape{m, n});
    Tensor c_simd(Shape{m, n});
    {
      const ForcedTarget forced(mk::Target::kScalar);
      ASSERT_TRUE(forced.ok());
      gemm::gemm_f32(false, false, m, n, k, a.data().data(), b.data().data(), 0.0F,
                     c_scalar.data().data());
    }
    {
      const ForcedTarget forced(best);
      ASSERT_TRUE(forced.ok());
      gemm::gemm_f32(false, false, m, n, k, a.data().data(), b.data().data(), 0.0F,
                     c_simd.data().data());
    }
    for (std::int64_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(c_scalar.at(i), c_simd.at(i))
          << "scalar vs simd disagreement, m=" << m << " n=" << n << " k=" << k
          << " at " << i;
    }
  }
}

TEST(Microkernel, BatchedGemmIdenticalAcrossTargetsIncludingDotPath) {
  // gemm_batched_f32's per-item kernel (ops.small), covering the routing
  // shapes: weighted sum (m=1), agreement update (n=1, the scalar fmaf dot
  // chain), backward outer product (k=1), plus a generic odd shape and a
  // broadcast B operand (stride 0).
  struct Case {
    std::int64_t batch, m, n, k, stride_a, stride_b, stride_c;
  };
  const std::array<Case, 5> cases = {{
      {24, 1, 8, 50, 50, 8 * 50, 8},       // weighted sum
      {12, 50, 1, 8, 8 * 50, 8, 50},       // agreement dot
      {5, 7, 16, 1, 7, 16, 7 * 16},        // outer product
      {3, 7, 17, 13, 7 * 13, 13 * 17, 7 * 17},  // odd tails
      {6, 4, 9, 11, 4 * 11, 0, 4 * 9},     // broadcast B
  }};
  Rng rng(23);
  for (const Case& cs : cases) {
    const std::int64_t a_elems =
        (cs.batch - 1) * cs.stride_a + cs.m * cs.k;
    const std::int64_t b_elems = (cs.batch - 1) * cs.stride_b + cs.k * cs.n;
    const std::int64_t c_elems = (cs.batch - 1) * cs.stride_c + cs.m * cs.n;
    const Tensor a = ops::uniform(Shape{a_elems}, -1.0, 1.0, rng);
    const Tensor b = ops::uniform(Shape{b_elems}, -1.0, 1.0, rng);
    std::vector<Tensor> results;
    for (const mk::Target target : supported_targets()) {
      const ForcedTarget forced(target);
      ASSERT_TRUE(forced.ok());
      Tensor c(Shape{c_elems});
      gemm::gemm_batched_f32(cs.batch, cs.m, cs.n, cs.k, a.data().data(), cs.stride_a,
                             b.data().data(), cs.stride_b, 0.0F, c.data().data(),
                             cs.stride_c);
      results.push_back(std::move(c));
    }
    // Reference: fmaf chains per element of each batch item.
    Tensor want(Shape{c_elems});
    for (std::int64_t p = 0; p < cs.batch; ++p) {
      for (std::int64_t i = 0; i < cs.m; ++i) {
        for (std::int64_t j = 0; j < cs.n; ++j) {
          float acc = 0.0F;
          for (std::int64_t kk = 0; kk < cs.k; ++kk) {
            acc = std::fmaf(a.at(p * cs.stride_a + i * cs.k + kk),
                            b.at(p * cs.stride_b + kk * cs.n + j), acc);
          }
          want.at(p * cs.stride_c + i * cs.n + j) = acc;
        }
      }
    }
    for (const Tensor& got : results) {
      for (std::int64_t i = 0; i < c_elems; ++i) {
        ASSERT_EQ(got.at(i), want.at(i)) << "batch case m=" << cs.m << " n=" << cs.n
                                         << " k=" << cs.k << " at " << i;
      }
    }
  }
}

TEST(Microkernel, ZeroTimesNaNStillPropagatesOnEveryTarget) {
  // The IEEE contract of the core survives dispatch: fma(0, NaN, 0) is NaN.
  for (const mk::Target target : supported_targets()) {
    const ForcedTarget forced(target);
    ASSERT_TRUE(forced.ok());
    const Tensor a(Shape{1, 2}, {0.0F, 1.0F});
    const Tensor b(Shape{2, 1}, {std::nanf(""), 2.0F});
    const Tensor c = gemm::matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at(0)));
  }
}

TEST(Microkernel, EnvOverrideSelectsTheRequestedTarget) {
  // Every ForcedTarget in this binary restores the previously-active
  // target, so whenever no ForcedTarget is live the active target is
  // whatever first-use resolution picked — which, with
  // REDCANE_GEMM_KERNEL set (CI runs this binary under =scalar), must be
  // the requested target. This is the only check of resolve()'s env path.
  const char* env = std::getenv("REDCANE_GEMM_KERNEL");
  if (env == nullptr) GTEST_SKIP() << "REDCANE_GEMM_KERNEL not set";
  mk::Target want;
  if (std::strcmp(env, "scalar") == 0) {
    want = mk::Target::kScalar;
  } else if (std::strcmp(env, "sse") == 0) {
    want = mk::Target::kSse;
  } else if (std::strcmp(env, "avx2") == 0) {
    want = mk::Target::kAvx2;
  } else {
    GTEST_SKIP() << "unknown REDCANE_GEMM_KERNEL value '" << env << "'";
  }
  if (!mk::supported(want)) GTEST_SKIP() << "'" << env << "' unsupported on this machine";
  EXPECT_EQ(mk::active().target, want) << "env override was not honored by dispatch";
}

TEST(Microkernel, ForceRejectsUnsupportedTargetAndKeepsDispatch) {
  const mk::Target before = mk::active().target;
  bool any_unsupported = false;
  for (mk::Target t : {mk::Target::kSse, mk::Target::kAvx2}) {
    if (!mk::supported(t)) {
      any_unsupported = true;
      EXPECT_FALSE(mk::force(t));
      EXPECT_EQ(mk::active().target, before);
    }
  }
  if (!any_unsupported) GTEST_SKIP() << "all targets supported on this machine";
}

}  // namespace
}  // namespace redcane
