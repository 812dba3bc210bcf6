// im2col / col2im: lowering of NHWC convolutions to matrix products.
//
// Every convolution path in the codebase (float conv2d forward/backward,
// the quantized approximate conv, and the capsule conv layers) routes
// through this lowering plus the blocked kernels in tensor/gemm.hpp, so
// the GEMM core is the single place future backends plug in.
//
// Layout convention: an input [N, H, W, Cin] convolved by a KHxKW kernel
// lowers to a patch matrix of shape [rows() = N*Ho*Wo, cols() = KH*KW*Cin]
// whose column index is (ky*KW + kx)*Cin + ci. A KKIO weight tensor
// [KH, KW, Cin, Cout] is, row-major, already the matching [cols(), Cout]
// matrix — no reshuffle is ever needed.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace redcane::nn {

/// Geometry of one 2D convolution, shared by all conv paths.
struct ConvDims {
  std::int64_t n = 0, h = 0, w = 0, cin = 0;
  std::int64_t kh = 0, kw = 0, cout = 0;
  std::int64_t ho = 0, wo = 0;
  std::int64_t stride = 1, pad = 0;

  /// Patch-matrix row count (one row per output spatial position).
  [[nodiscard]] std::int64_t rows() const { return n * ho * wo; }
  /// Patch-matrix column count (one column per kernel tap).
  [[nodiscard]] std::int64_t cols() const { return kh * kw * cin; }
};

/// Validates NHWC x against KKIO w and computes output geometry.
/// Aborts on rank/channel mismatch or empty output.
[[nodiscard]] ConvDims make_conv_dims(const Shape& x, const Shape& w, std::int64_t stride,
                                      std::int64_t pad);

/// Geometry without a KKIO weight tensor (capsule vote layers carry their
/// weights in a different layout).
[[nodiscard]] ConvDims make_conv_dims(const Shape& x, std::int64_t kh, std::int64_t kw,
                                      std::int64_t cout, std::int64_t stride, std::int64_t pad);

/// Writes the [rows(), cols()] patch matrix for image `x` (layout
/// [n, h, w, cin] row-major). Out-of-bounds (zero-padding) taps become 0.
void im2col(const float* x, const ConvDims& d, float* cols);

/// Tensor convenience wrapper; result shape [rows(), cols()].
[[nodiscard]] Tensor im2col(const Tensor& x, const ConvDims& d);

/// Adjoint of im2col: scatter-adds patch matrix `cols` back into image
/// layout. `x` must be zero-initialized by the caller (the function only
/// accumulates); out-of-bounds taps are dropped.
void col2im(const float* cols, const ConvDims& d, float* x);

/// Quantized-code variant for the approximate-multiplier path. Copies
/// u8 codes into the patch matrix, row-major [rows(), cols()] or, when
/// `tap_major`, transposed to [cols(), rows()] (the layout the LUT-GEMM
/// streams with its lanes along output positions). Both layouts are
/// written as contiguous runs: for tap-major, one copy per (tap, image
/// row) instead of one per (position, tap). `pixel_stride` is the code
/// distance between horizontally adjacent input pixels (0 = cin), so a
/// caller can lower one channel slice of a wider tensor in place.
///
/// `mask` (same layout; null = not written) records tap validity
/// (1 = real tap, 0 = zero-padding). Padding cannot be represented as a
/// code because the affine zero-point maps real 0 to a nonzero code; the
/// integer GEMM skips masked-out taps so padded positions contribute true
/// zero to every accumulator, matching the float reference exactly. With
/// pad == 0 every tap is valid and callers pass no mask.
void im2col_codes(const std::uint8_t* x, const ConvDims& d, std::uint8_t* cols,
                  std::uint8_t* mask, bool tap_major = false, std::int64_t pixel_stride = 0);

}  // namespace redcane::nn
