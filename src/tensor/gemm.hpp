// Blocked GEMM kernels: the single compute core behind every matmul and
// (via nn/im2col) every convolution in the codebase.
//
// Two kernels live here:
//  * gemm_f32 — cache-blocked, pool-parallel float GEMM with optional
//    operand transposes and accumulation (beta). The inner loops are the
//    runtime-dispatched SIMD microkernels of tensor/microkernel.hpp
//    (AVX2+FMA 6x16 register tile, with SSE-FMA and scalar-fmaf
//    fallbacks); operands are packed into tile-strip panels from the
//    per-thread workspace arena, so steady-state calls never allocate.
//    No zero-skip shortcuts: 0 * NaN and 0 * Inf propagate per IEEE
//    semantics, unlike the naive loops this core replaced.
//  * gemm_u8_lut — integer GEMM over 8-bit quantization codes whose inner
//    product is routed through a caller-built 256x256 product table (one
//    table build per layer call instead of one virtual multiplier call per
//    code pair). It also emits the per-row/per-column code sums and tap
//    counts the affine dequantization needs.
//
// Determinism: every float C element is one fused-multiply-add chain in
// ascending k, owned by one thread — results are bit-identical across
// thread counts AND across dispatch targets (microkernel.hpp has the full
// contract). Swapping in another backend preserves every consumer.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace redcane::gemm {

/// C[m, n] = op(A) * op(B) + beta * C, all row-major.
/// op(A) is A [m, k] when trans_a is false, else A is stored [k, m].
/// op(B) is B [k, n] when trans_b is false, else B is stored [n, k].
/// beta must be 0 (overwrite) or 1 (accumulate into C).
void gemm_f32(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
              const float* a, const float* b, float beta, float* c);

/// Rank-2 tensor convenience wrapper: returns op(A) * op(B).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
                            bool trans_b = false);

/// Batched strided GEMM: for every p in [0, batch)
///   C_p[m, n] = A_p[m, k] * B_p[k, n] + beta * C_p,  X_p = x + p * stride_x,
/// all row-major, no transposes, beta 0 (overwrite) or 1 (accumulate).
/// A stride of 0 broadcasts one operand across the batch. Batch items run
/// in parallel; within an item the contraction accumulates in ascending k,
/// so results are bit-identical across thread counts. This is the kernel
/// behind dynamic routing's weighted sum / agreement update, where the
/// batch dimension is (batch row x output capsule).
void gemm_batched_f32(std::int64_t batch, std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, std::int64_t stride_a, const float* b,
                      std::int64_t stride_b, float beta, float* c, std::int64_t stride_c);

/// Integer GEMM over u8 codes with a per-tap validity mask.
///
/// A is [m, k] codes with mask [m, k] (1 = real tap, 0 = padding; a null
/// mask means every tap is valid); B is [k, n] codes (always valid). For
/// every output (i, j) and every valid tap kk it accumulates:
///   acc_qq[i*n+j] += lut[A[i,kk] * 256 + B[kk,j]]   (approximate product)
///   acc_qw[i*n+j] += B[kk,j]                        (weight-code sum)
/// and per row:
///   acc_qa[i] += A[i,kk], taps[i] += 1.
/// These are exactly the four accumulators of the affine-quantized
/// convolution expansion (see quant/lut_gemm.hpp). All output buffers
/// are overwritten.
void gemm_u8_lut(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                 const std::uint8_t* a_mask, const std::uint8_t* b, const std::uint32_t* lut,
                 std::uint64_t* acc_qq, std::uint64_t* acc_qw, std::uint64_t* acc_qa,
                 std::int64_t* taps);

/// Abstract 32-bit accumulate operation: the seam through which the
/// LUT-accumulate kernel below runs its product sums on a behavioral
/// approximate adder without tensor/ depending on approx/ (the adapter
/// over approx::Adder lives in quant/lut_gemm.cpp).
class U32Accum {
 public:
  virtual ~U32Accum() = default;
  [[nodiscard]] virtual std::uint32_t add(std::uint32_t a, std::uint32_t b) const = 0;
};

/// gemm_u8_lut with the product accumulation routed through `accum` as one
/// left-to-right chain in ascending k per output element — the emulated
/// accumulator datapath of a MAC array (approx/mac_chain.hpp semantics at
/// GEMM scale). Cross-term code sums (acc_qw/acc_qa/taps) stay exact: they
/// belong to the affine dequantization bookkeeping, not to the hardware
/// accumulator being modeled. Each output element is owned by one thread
/// and its chain order is fixed, so results are bit-identical across
/// thread counts. With an exact `accum`, acc_qq equals the gemm_u8_lut
/// sums whenever they fit 32 bits (8-bit codes: k up to ~65k taps).
void gemm_u8_lut_chain(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                       const std::uint8_t* a_mask, const std::uint8_t* b,
                       const std::uint32_t* lut, const U32Accum& accum, std::uint32_t* acc_qq,
                       std::uint64_t* acc_qw, std::uint64_t* acc_qa, std::int64_t* taps);

}  // namespace redcane::gemm
