// Shared LUT-accumulate GEMM: the single behavioral-execution core behind
// every emulated MAC datapath in the codebase.
//
// A float GEMM (or a convolution lowered to one) is executed the way the
// approximate hardware would run it: both operands are affine-quantized to
// 8-bit codes, every code product goes through a behavioral Multiplier via
// a per-call 256x256 product table, the products accumulate either exactly
// or through a behavioral approximate Adder chain (gemm_u8_lut_chain), and
// the affine cross terms dequantize the integer sums back to float:
//
//   x = mx + qx*sx, w = mw + qw*sw
//   sum x*w = mx*mw*taps + mw*sx*sum(qx) + mx*sw*sum(qw) + sx*sw*sum(qx*qw)
//
// Only the code-by-code product term touches the approximate units; the
// cross terms are dequantization bookkeeping and stay exact. Callers:
// quant::approx_conv2d (single conv), the capsule vote layers (one
// grouped call per layer, sharing one table and one pair of params), and
// nn::Dense — all staging (codes, table, accumulators) carved from the
// per-thread workspace arena.
#pragma once

#include "approx/adder.hpp"
#include "approx/multiplier.hpp"
#include "quant/quantizer.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace redcane::quant {

/// One MAC datapath choice: the behavioral multiplier and (optionally) the
/// behavioral accumulator adder of an emulated GEMM. Null members mean
/// exact arithmetic for that unit.
struct MacUnit {
  const approx::Multiplier* mul = nullptr;  ///< Null = exact multiplier.
  const approx::Adder* adder = nullptr;     ///< Null = exact accumulation.
};

/// Materializes the 256x256 product table of `mul` (the exact multiplier
/// when null) into `lut`: one table build per layer call replaces one
/// virtual multiplier call per code pair. Hot paths should go through
/// quant::lut_cache_get (quant/lut_cache.hpp) instead, which memoizes the
/// build and prepares the SIMD dispatch metadata.
void build_product_lut(const approx::Multiplier* mul, std::uint32_t* lut);

/// The one orientation rule of the emulated MAC core, for an m x n output
/// over k taps: lanes along the output positions when they are at least
/// twice as many as the channels (m >= 2n) and the taps amortize the
/// per-channel set-up of that orientation (n <= 2k), else along the
/// channels. Every emulated layer asks it before laying out its activation
/// codes; nothing else picks an orientation. The results are bitwise the
/// same either way (tensor/lut_kernel.hpp); only the speed differs.
[[nodiscard]] gemm::lk::Lanes lut_lanes(std::int64_t m, std::int64_t n, std::int64_t k);

/// Where a grouped product's floats go: element (g, i, j) lands at
/// data[g * group + i * row + j].
struct LutOutput {
  float* data = nullptr;
  std::int64_t row = 0;
  std::int64_t group = 0;
};

/// The core: `p` names every group's activation codes (laid out for
/// p.lanes, usually lut_lanes(p.m, p.n, p.k)), validity mask and weight codes;
/// `tables` is the prepared product table (usually from the process-wide
/// cache), and pa/pb the affine params both operands were quantized with.
/// Accumulates through `adder` when non-null (one chain in ascending k per
/// output element), exactly otherwise, then dequantizes into `out`
/// (adding `bias` [n] when non-null). One call serves a whole grouped
/// layer: the table, the params and the thread fan-out are shared across
/// groups, and threads split only across output elements, so results are
/// bit-identical across thread counts, orientations and dispatch tiers.
void lut_gemm_dequant(const gemm::lk::LutProblem& p, const QuantParams& pa,
                      const QuantParams& pb, const gemm::lk::LutTables& tables,
                      const approx::Adder* adder, const float* bias, const LutOutput& out);

/// The prologue every emulated product shares: fits `bits`-wide params to
/// each operand's empirical range, quantizes both into code buffers carved
/// from `wksp` (the caller's open scope owns them) and fetches `mul`'s
/// table from the process-wide cache (quant/lut_cache.hpp).
struct QuantOperands {
  QuantOperands(const Tensor& a, const Tensor& b, const approx::Multiplier* mul, int bits,
                ws::Workspace& wksp);

  QuantParams pa;
  QuantParams pb;
  std::uint8_t* qa;
  std::uint8_t* qb;
  const gemm::lk::LutTables* tables = nullptr;
};

/// Emulated matrix product: a [m, k] * b [k, n] (+ bias [n], may be empty)
/// through `unit` at `bits`-wide operand quantization. Quantization params
/// are fitted per call from each operand's empirical range.
[[nodiscard]] Tensor approx_matmul(const Tensor& a, const Tensor& b, const Tensor& bias,
                                   const MacUnit& unit, int bits = 8);

}  // namespace redcane::quant
