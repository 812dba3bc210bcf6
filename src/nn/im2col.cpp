#include "nn/im2col.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/pool.hpp"

namespace redcane::nn {
namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "redcane::nn fatal: %s\n", what);
  std::abort();
}

}  // namespace

ConvDims make_conv_dims(const Shape& x, std::int64_t kh, std::int64_t kw, std::int64_t cout,
                        std::int64_t stride, std::int64_t pad) {
  if (x.rank() != 4) fail("conv expects NHWC input");
  if (stride <= 0) fail("conv stride must be positive");
  ConvDims d;
  d.n = x.dim(0);
  d.h = x.dim(1);
  d.w = x.dim(2);
  d.cin = x.dim(3);
  d.kh = kh;
  d.kw = kw;
  d.cout = cout;
  d.stride = stride;
  d.pad = pad;
  d.ho = (d.h + 2 * pad - kh) / stride + 1;
  d.wo = (d.w + 2 * pad - kw) / stride + 1;
  if (d.ho <= 0 || d.wo <= 0) fail("conv produces empty output");
  return d;
}

ConvDims make_conv_dims(const Shape& x, const Shape& w, std::int64_t stride, std::int64_t pad) {
  if (w.rank() != 4) fail("conv expects KKIO weights");
  ConvDims d = make_conv_dims(x, w.dim(0), w.dim(1), w.dim(3), stride, pad);
  if (w.dim(2) != d.cin) fail("conv channel mismatch");
  return d;
}

// The three lowerings below share their loop structure: iterate output
// positions (= patch rows) and kernel rows, handling each kernel row as one
// contiguous run of kw*cin elements when fully inside the image, tap by tap
// otherwise.

void im2col(const float* x, const ConvDims& d, float* cols) {
  const std::int64_t row_len = d.cols();
  // Work items are the n * ho rows of output positions. Each copies wo * kh
  // runs of kw * cin floats: about 10 ns a run plus 0.1 ns a float.
  const double item_ns =
      static_cast<double>(d.wo * d.kh) * (10.0 + 0.1 * static_cast<double>(d.kw * d.cin));
  pool::parallel_for(d.n * d.ho, item_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t item = first; item < last; ++item) {
      const std::int64_t ni = item / d.ho;
      const std::int64_t oy = item % d.ho;
      for (std::int64_t ox = 0; ox < d.wo; ++ox) {
        float* row = cols + ((ni * d.ho + oy) * d.wo + ox) * row_len;
        for (std::int64_t ky = 0; ky < d.kh; ++ky) {
          const std::int64_t iy = oy * d.stride + ky - d.pad;
          float* dst = row + ky * d.kw * d.cin;
          if (iy < 0 || iy >= d.h) {
            std::memset(dst, 0, static_cast<std::size_t>(d.kw * d.cin) * sizeof(float));
            continue;
          }
          const std::int64_t ix0 = ox * d.stride - d.pad;
          const float* src_row = x + ((ni * d.h + iy) * d.w) * d.cin;
          if (ix0 >= 0 && ix0 + d.kw <= d.w) {
            std::memcpy(dst, src_row + ix0 * d.cin,
                        static_cast<std::size_t>(d.kw * d.cin) * sizeof(float));
            continue;
          }
          for (std::int64_t kx = 0; kx < d.kw; ++kx) {
            const std::int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= d.w) {
              std::memset(dst + kx * d.cin, 0, static_cast<std::size_t>(d.cin) * sizeof(float));
            } else {
              std::memcpy(dst + kx * d.cin, src_row + ix * d.cin,
                          static_cast<std::size_t>(d.cin) * sizeof(float));
            }
          }
        }
      }
    }
  });
}

Tensor im2col(const Tensor& x, const ConvDims& d) {
  Tensor cols(Shape{d.rows(), d.cols()});
  im2col(x.data().data(), d, cols.data().data());
  return cols;
}

void col2im(const float* cols, const ConvDims& d, float* x) {
  const std::int64_t row_len = d.cols();
  // Serial: overlapping patches scatter-add into the same image elements.
  for (std::int64_t ni = 0; ni < d.n; ++ni) {
    for (std::int64_t oy = 0; oy < d.ho; ++oy) {
      for (std::int64_t ox = 0; ox < d.wo; ++ox) {
        const float* row = cols + ((ni * d.ho + oy) * d.wo + ox) * row_len;
        for (std::int64_t ky = 0; ky < d.kh; ++ky) {
          const std::int64_t iy = oy * d.stride + ky - d.pad;
          if (iy < 0 || iy >= d.h) continue;
          const float* src = row + ky * d.kw * d.cin;
          float* dst_row = x + ((ni * d.h + iy) * d.w) * d.cin;
          const std::int64_t ix0 = ox * d.stride - d.pad;
          for (std::int64_t kx = 0; kx < d.kw; ++kx) {
            const std::int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= d.w) continue;
            float* dst = dst_row + ix * d.cin;
            const float* s = src + kx * d.cin;
            for (std::int64_t ci = 0; ci < d.cin; ++ci) dst[ci] += s[ci];
          }
        }
      }
    }
  }
}

void im2col_codes(const std::uint8_t* x, const ConvDims& d, std::uint8_t* cols,
                  std::uint8_t* mask, bool tap_major, std::int64_t pixel_stride) {
  const std::int64_t ps = pixel_stride == 0 ? d.cin : pixel_stride;
  const std::int64_t m = d.rows();
  const std::int64_t k = d.cols();
  // Sets `len` elements from `e` on (a null mask is not written).
  const auto fill = [](std::uint8_t* dst, std::int64_t e, std::int64_t len, std::uint8_t v) {
    if (dst != nullptr) std::memset(dst + e, v, static_cast<std::size_t>(len));
  };

  if (!tap_major) {
    for (std::int64_t ni = 0; ni < d.n; ++ni) {
      for (std::int64_t oy = 0; oy < d.ho; ++oy) {
        for (std::int64_t ox = 0; ox < d.wo; ++ox) {
          const std::int64_t row = ((ni * d.ho + oy) * d.wo + ox) * k;
          for (std::int64_t ky = 0; ky < d.kh; ++ky) {
            const std::int64_t iy = oy * d.stride + ky - d.pad;
            const std::int64_t e = row + ky * d.kw * d.cin;
            if (iy < 0 || iy >= d.h) {
              fill(cols, e, d.kw * d.cin, 0);
              fill(mask, e, d.kw * d.cin, 0);
              continue;
            }
            const std::uint8_t* src_row = x + ((ni * d.h + iy) * d.w) * ps;
            const std::int64_t ix0 = ox * d.stride - d.pad;
            if (ps == d.cin && ix0 >= 0 && ix0 + d.kw <= d.w) {  // One run per kernel row.
              std::memcpy(cols + e, src_row + ix0 * ps, static_cast<std::size_t>(d.kw * d.cin));
              fill(mask, e, d.kw * d.cin, 1);
              continue;
            }
            for (std::int64_t kx = 0; kx < d.kw; ++kx) {
              const std::int64_t ix = ix0 + kx;
              const bool live = ix >= 0 && ix < d.w;
              if (live) {
                std::memcpy(cols + e + kx * d.cin, src_row + ix * ps,
                            static_cast<std::size_t>(d.cin));
              } else {
                fill(cols, e + kx * d.cin, d.cin, 0);
              }
              fill(mask, e + kx * d.cin, d.cin, live ? 1 : 0);
            }
          }
        }
      }
    }
    return;
  }

  // Tap-major: for tap (ky, kx, ci) and image row (ni, oy), the live
  // positions form one run ox in [lo, hi) reading every stride-th pixel.
  for (std::int64_t ky = 0; ky < d.kh; ++ky) {
    for (std::int64_t kx = 0; kx < d.kw; ++kx) {
      const std::int64_t off = kx - d.pad;  // ix = ox * stride + off
      const std::int64_t lo =
          std::min(d.wo, off >= 0 ? 0 : (-off + d.stride - 1) / d.stride);
      const std::int64_t hi =
          std::max(lo, std::min(d.wo, d.w - 1 - off < 0 ? 0 : (d.w - 1 - off) / d.stride + 1));
      for (std::int64_t ci = 0; ci < d.cin; ++ci) {
        const std::int64_t kk = (ky * d.kw + kx) * d.cin + ci;
        for (std::int64_t ni = 0; ni < d.n; ++ni) {
          for (std::int64_t oy = 0; oy < d.ho; ++oy) {
            const std::int64_t e = kk * m + (ni * d.ho + oy) * d.wo;
            const std::int64_t iy = oy * d.stride + ky - d.pad;
            if (iy < 0 || iy >= d.h) {
              fill(cols, e, d.wo, 0);
              fill(mask, e, d.wo, 0);
              continue;
            }
            const std::uint8_t* src_row = x + ((ni * d.h + iy) * d.w) * ps + ci;
            std::uint8_t* dst = cols + e;
            fill(cols, e, lo, 0);
            fill(cols, e + hi, d.wo - hi, 0);
            if (d.stride == 1 && ps == 1) {
              std::memcpy(dst + lo, src_row + lo + off, static_cast<std::size_t>(hi - lo));
            } else {
              for (std::int64_t ox = lo; ox < hi; ++ox) {
                dst[ox] = src_row[(ox * d.stride + off) * ps];
              }
            }
            fill(mask, e, lo, 0);
            fill(mask, e + lo, hi - lo, 1);
            fill(mask, e + hi, d.wo - hi, 0);
          }
        }
      }
    }
  }
}

}  // namespace redcane::nn
