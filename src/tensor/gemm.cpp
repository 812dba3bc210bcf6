#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tensor/microkernel.hpp"
#include "tensor/workspace.hpp"
#include "util/pool.hpp"

namespace redcane::gemm {
namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "redcane::gemm fatal: %s\n", what);
  std::abort();
}

// Cache-block extents around the mk::kMR x mk::kNR register tile: an A
// panel (kBlockM x kBlockK = 72 KiB) stays L2-resident per thread while
// each packed B strip (kBlockK x kNR = 12 KiB) streams through L1. All
// three are multiples of the tile so interior blocks never hit the staged
// edge path, and they are dispatch-independent — the blocking (hence the
// result) is identical for every microkernel target.
constexpr std::int64_t kBlockM = 96;   // 16 kMR strips.
constexpr std::int64_t kBlockN = 256;  // 16 kNR strips.
constexpr std::int64_t kBlockK = 192;

// Serial cost estimates for pool::parallel_for [ns per multiply-add, one
// core]: the blocked SIMD microkernel, the unblocked small kernel, and a
// scalar table lookup.
constexpr double kNsPerMac = 0.04;
constexpr double kNsPerSmallMac = 0.15;
constexpr double kNsPerScalarLutMac = 0.6;

/// Packs op(A)[i0:i0+mb, k0:k0+kc] into kMR-row strips: strip s holds
/// apack[(s*kc + kk)*kMR + r] = op(A)[i0 + s*kMR + r, k0 + kk], rows past
/// mb zero-filled so edge tiles run the same full-tile kernel.
void pack_a(float* apack, const float* a, bool trans_a, std::int64_t m, std::int64_t k,
            std::int64_t i0, std::int64_t mb, std::int64_t k0, std::int64_t kc) {
  const std::int64_t strips = (mb + mk::kMR - 1) / mk::kMR;
  for (std::int64_t s = 0; s < strips; ++s) {
    float* dst = apack + s * kc * mk::kMR;
    if (!trans_a) {
      // A is [m, k]: each tile row is a contiguous run of A.
      for (std::int64_t r = 0; r < mk::kMR; ++r) {
        const std::int64_t i = i0 + s * mk::kMR + r;
        if (i < i0 + mb) {
          const float* src = a + i * k + k0;
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mk::kMR + r] = src[kk];
        } else {
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mk::kMR + r] = 0.0F;
        }
      }
    } else {
      // A stored [k, m]: each kk is a contiguous run of kMR rows.
      const std::int64_t i = i0 + s * mk::kMR;
      const std::int64_t valid = std::min<std::int64_t>(mk::kMR, i0 + mb - i);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (k0 + kk) * m + i;
        float* row = dst + kk * mk::kMR;
        for (std::int64_t r = 0; r < valid; ++r) row[r] = src[r];
        for (std::int64_t r = valid; r < mk::kMR; ++r) row[r] = 0.0F;
      }
    }
  }
  (void)m;
}

/// Packs op(B)[k0:k0+kc, j0:j0+nb] into kNR-column strips: strip t holds
/// bpack[(t*kc + kk)*kNR + j] = op(B)[k0 + kk, j0 + t*kNR + j], columns
/// past nb zero-filled.
void pack_b(float* bpack, const float* b, bool trans_b, std::int64_t k, std::int64_t n,
            std::int64_t k0, std::int64_t kc, std::int64_t j0, std::int64_t nb) {
  const std::int64_t strips = (nb + mk::kNR - 1) / mk::kNR;
  for (std::int64_t t = 0; t < strips; ++t) {
    float* dst = bpack + t * kc * mk::kNR;
    const std::int64_t j = j0 + t * mk::kNR;
    const std::int64_t valid = std::min<std::int64_t>(mk::kNR, j0 + nb - j);
    if (!trans_b) {
      // B is [k, n]: each kk is a contiguous run of columns.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + (k0 + kk) * n + j;
        float* row = dst + kk * mk::kNR;
        std::memcpy(row, src, static_cast<std::size_t>(valid) * sizeof(float));
        for (std::int64_t jj = valid; jj < mk::kNR; ++jj) row[jj] = 0.0F;
      }
    } else {
      // B stored [n, k]: each column is a contiguous run of B.
      for (std::int64_t jj = 0; jj < mk::kNR; ++jj) {
        if (jj < valid) {
          const float* src = b + (j + jj) * k + k0;
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mk::kNR + jj] = src[kk];
        } else {
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * mk::kNR + jj] = 0.0F;
        }
      }
    }
  }
}

}  // namespace

void gemm_f32(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
              const float* a, const float* b, float beta, float* c) {
  if (m < 0 || n < 0 || k < 0) fail("negative gemm extent");
  if (beta != 0.0F && beta != 1.0F) fail("gemm beta must be 0 or 1");
  if (beta == 0.0F) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  if (m == 0 || n == 0 || k == 0) return;
  const mk::KernelOps& ops = mk::active();
  // Row blocks are independent: each C element is owned by one thread and
  // accumulated in a fixed ascending-k fma chain, so results do not depend
  // on the thread count (or, per the microkernel contract, the dispatch
  // target). Packing buffers come from the per-thread workspace arena —
  // steady-state GEMM calls never touch the allocator.
  const std::int64_t blocks = (m + kBlockM - 1) / kBlockM;
  const double block_ns = static_cast<double>(kBlockM * n) * static_cast<double>(k) * kNsPerMac;
  pool::parallel_for(blocks, block_ns, [&](std::int64_t first, std::int64_t last) {
    ws::Workspace& wksp = ws::Workspace::tls();
    const ws::Workspace::Scope scope(wksp);
    float* apack = wksp.alloc<float>(static_cast<std::size_t>(kBlockM * kBlockK));
    float* bpack = wksp.alloc<float>(
        static_cast<std::size_t>((kBlockN / mk::kNR) * mk::kNR * kBlockK));
    alignas(64) float ctile[mk::kMR * mk::kNR];
    for (std::int64_t i0 = first * kBlockM; i0 < std::min(m, last * kBlockM); i0 += kBlockM) {
      const std::int64_t mb = std::min(kBlockM, m - i0);
      const std::int64_t mstrips = (mb + mk::kMR - 1) / mk::kMR;
      for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t kc = std::min(kBlockK, k - k0);
        pack_a(apack, a, trans_a, m, k, i0, mb, k0, kc);
        for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
          const std::int64_t nb = std::min(kBlockN, n - j0);
          const std::int64_t nstrips = (nb + mk::kNR - 1) / mk::kNR;
          pack_b(bpack, b, trans_b, k, n, k0, kc, j0, nb);
          for (std::int64_t t = 0; t < nstrips; ++t) {
            const std::int64_t jt = j0 + t * mk::kNR;
            const std::int64_t jw = std::min(mk::kNR, n - jt);
            const float* bp = bpack + t * kc * mk::kNR;
            for (std::int64_t s = 0; s < mstrips; ++s) {
              const std::int64_t it = i0 + s * mk::kMR;
              const std::int64_t iw = std::min(mk::kMR, i0 + mb - it);
              const float* ap = apack + s * kc * mk::kMR;
              if (iw == mk::kMR && jw == mk::kNR) {
                ops.tile(kc, ap, bp, c + it * n + jt, n);
              } else {
                // Edge tile: stage through a zero-padded full tile so the
                // kernel never reads or writes out of bounds; padded lanes
                // accumulate fma(0, 0, 0) and are discarded.
                std::memset(ctile, 0, sizeof(ctile));
                for (std::int64_t r = 0; r < iw; ++r) {
                  std::memcpy(ctile + r * mk::kNR, c + (it + r) * n + jt,
                              static_cast<std::size_t>(jw) * sizeof(float));
                }
                ops.tile(kc, ap, bp, ctile, mk::kNR);
                for (std::int64_t r = 0; r < iw; ++r) {
                  std::memcpy(c + (it + r) * n + jt, ctile + r * mk::kNR,
                              static_cast<std::size_t>(jw) * sizeof(float));
                }
              }
            }
          }
        }
      }
    }
  });
}

void gemm_batched_f32(std::int64_t batch, std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, std::int64_t stride_a, const float* b,
                      std::int64_t stride_b, float beta, float* c, std::int64_t stride_c) {
  if (batch < 0 || m < 0 || n < 0 || k < 0) fail("negative batched gemm extent");
  if (beta != 0.0F && beta != 1.0F) fail("batched gemm beta must be 0 or 1");
  if (stride_c == 0 && batch > 1) fail("batched gemm output stride must not broadcast");
  const mk::KernelOps& ops = mk::active();
  const double item_ns = static_cast<double>(m * n) * static_cast<double>(k) * kNsPerSmallMac;
  pool::parallel_for(batch, item_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t p = first; p < last; ++p) {
      const float* ap = a + p * stride_a;
      const float* bp = b + p * stride_b;
      float* cp = c + p * stride_c;
      if (beta == 0.0F) std::memset(cp, 0, static_cast<std::size_t>(m * n) * sizeof(float));
      // Batch items are small (routing blocks): no cache blocking, just the
      // dispatched unblocked kernel. Each element's contraction is one fma
      // chain in ascending k, so results are bit-identical across thread
      // counts and dispatch targets.
      ops.small(m, n, k, ap, bp, cp);
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) fail("matmul expects rank-2 tensors");
  const std::int64_t m = a.shape().dim(trans_a ? 1 : 0);
  const std::int64_t ka = a.shape().dim(trans_a ? 0 : 1);
  const std::int64_t kb = b.shape().dim(trans_b ? 1 : 0);
  const std::int64_t n = b.shape().dim(trans_b ? 0 : 1);
  if (ka != kb) fail("matmul inner dimension mismatch");
  Tensor c(Shape{m, n});
  gemm_f32(trans_a, trans_b, m, n, ka, a.data().data(), b.data().data(), 0.0F,
           c.data().data());
  return c;
}

void gemm_u8_lut(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                 const std::uint8_t* a_mask, const std::uint8_t* b, const std::uint32_t* lut,
                 std::uint64_t* acc_qq, std::uint64_t* acc_qw, std::uint64_t* acc_qa,
                 std::int64_t* taps) {
  std::memset(acc_qq, 0, static_cast<std::size_t>(m * n) * sizeof(std::uint64_t));
  std::memset(acc_qw, 0, static_cast<std::size_t>(m * n) * sizeof(std::uint64_t));
  std::memset(acc_qa, 0, static_cast<std::size_t>(m) * sizeof(std::uint64_t));
  std::memset(taps, 0, static_cast<std::size_t>(m) * sizeof(std::int64_t));
  pool::parallel_for(m, static_cast<double>(n * k) * kNsPerScalarLutMac,
                     [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t i = first; i < last; ++i) {
      const std::uint8_t* arow = a + i * k;
      const std::uint8_t* mrow = a_mask == nullptr ? nullptr : a_mask + i * k;
      std::uint64_t* qq = acc_qq + i * n;
      std::uint64_t* qw = acc_qw + i * n;
      std::uint64_t qa = 0;
      std::int64_t t = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        if (mrow != nullptr && mrow[kk] == 0) continue;  // Padding tap: true zero.
        const std::uint32_t* lrow = lut + (static_cast<std::uint32_t>(arow[kk]) << 8);
        const std::uint8_t* brow = b + kk * n;
        qa += arow[kk];
        ++t;
        for (std::int64_t j = 0; j < n; ++j) {
          qq[j] += lrow[brow[j]];
          qw[j] += brow[j];
        }
      }
      acc_qa[i] = qa;
      taps[i] = t;
    }
  });
}

void gemm_u8_lut_chain(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                       const std::uint8_t* a_mask, const std::uint8_t* b,
                       const std::uint32_t* lut, const U32Accum& accum, std::uint32_t* acc_qq,
                       std::uint64_t* acc_qw, std::uint64_t* acc_qa, std::int64_t* taps) {
  std::memset(acc_qq, 0, static_cast<std::size_t>(m * n) * sizeof(std::uint32_t));
  std::memset(acc_qw, 0, static_cast<std::size_t>(m * n) * sizeof(std::uint64_t));
  std::memset(acc_qa, 0, static_cast<std::size_t>(m) * sizeof(std::uint64_t));
  std::memset(taps, 0, static_cast<std::size_t>(m) * sizeof(std::int64_t));
  pool::parallel_for(m, static_cast<double>(n * k) * kNsPerScalarLutMac,
                     [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t i = first; i < last; ++i) {
      const std::uint8_t* arow = a + i * k;
      const std::uint8_t* mrow = a_mask == nullptr ? nullptr : a_mask + i * k;
      std::uint32_t* qq = acc_qq + i * n;
      std::uint64_t* qw = acc_qw + i * n;
      std::uint64_t qa = 0;
      std::int64_t t = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        if (mrow != nullptr && mrow[kk] == 0) continue;  // Padding tap: true zero.
        const std::uint32_t* lrow = lut + (static_cast<std::uint32_t>(arow[kk]) << 8);
        const std::uint8_t* brow = b + kk * n;
        qa += arow[kk];
        ++t;
        // The chain runs in ascending k: acc <- accum(acc, product). With an
        // approximate accum, error accrues exactly as in the hardware
        // accumulator it models (carry cuts see the realized partial sums).
        for (std::int64_t j = 0; j < n; ++j) {
          qq[j] = accum.add(qq[j], lrow[brow[j]]);
          qw[j] += brow[j];
        }
      }
      acc_qa[i] = qa;
      taps[i] = t;
    }
  });
}

}  // namespace redcane::gemm
