#include "attack/affine.hpp"

#include <cmath>
#include <cstdint>

namespace redcane::attack {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

AffineParams AffineParams::inverse() const {
  // Forward map on centered coordinates: T(v) = s·R(a)·v + t. Therefore
  // T⁻¹(u) = (1/s)·R(-a)·(u - t): rotate by -a, scale by 1/s, translate by
  // -(1/s)·R(-a)·t.
  const double rad = angle_deg * kPi / 180.0;
  const double ca = std::cos(rad);
  const double sa = std::sin(rad);
  AffineParams inv;
  inv.angle_deg = -angle_deg;
  inv.scale = 1.0 / scale;
  // R(-a) = [[cos a, sin a], [-sin a, cos a]] acting on (x, y).
  inv.dx = -(ca * dx + sa * dy) * inv.scale;
  inv.dy = -(-sa * dx + ca * dy) * inv.scale;
  return inv;
}

Tensor affine_warp(const Tensor& x, const AffineParams& p) {
  if (p.is_identity()) {
    return x;  // Bitwise no-op: the identity transform must not resample.
  }
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t h = x.shape().dim(1);
  const std::int64_t w = x.shape().dim(2);
  const std::int64_t c = x.shape().dim(3);

  const double rad = p.angle_deg * kPi / 180.0;
  const double ca = std::cos(rad);
  const double sa = std::sin(rad);
  const double inv_s = 1.0 / p.scale;
  const double cx = static_cast<double>(w - 1) * 0.5;
  const double cy = static_cast<double>(h - 1) * 0.5;

  Tensor out(x.shape());
  const float* src = x.data().data();
  float* dst = out.data().data();
  const std::int64_t row_stride = w * c;
  const std::int64_t img_stride = h * row_stride;

  for (std::int64_t img = 0; img < n; ++img) {
    const float* sp = src + img * img_stride;
    float* dp = dst + img * img_stride;
    for (std::int64_t r = 0; r < h; ++r) {
      for (std::int64_t col = 0; col < w; ++col) {
        // Destination pixel -> centered coords, then through T⁻¹.
        const double ux = (static_cast<double>(col) - cx) - p.dx;
        const double uy = (static_cast<double>(r) - cy) - p.dy;
        const double sx = (ca * ux + sa * uy) * inv_s + cx;
        const double sy = (-sa * ux + ca * uy) * inv_s + cy;

        // Clamped to [-2, w] and [-2, h] before the integer cast. A sample
        // outside that range reads no pixel either way, and the clamp keeps
        // the cast defined for any finite spec: a huge translation, or a
        // zoom whose inverse overflows to inf (fmax also maps NaN to -2).
        const double fx = std::fmin(std::fmax(std::floor(sx), -2.0), static_cast<double>(w));
        const double fy = std::fmin(std::fmax(std::floor(sy), -2.0), static_cast<double>(h));
        const std::int64_t x0 = static_cast<std::int64_t>(fx);
        const std::int64_t y0 = static_cast<std::int64_t>(fy);
        const double wx = sx - fx;
        const double wy = sy - fy;
        const double w00 = (1.0 - wx) * (1.0 - wy);
        const double w01 = wx * (1.0 - wy);
        const double w10 = (1.0 - wx) * wy;
        const double w11 = wx * wy;
        const bool in_x0 = x0 >= 0 && x0 < w;
        const bool in_x1 = x0 + 1 >= 0 && x0 + 1 < w;
        const bool in_y0 = y0 >= 0 && y0 < h;
        const bool in_y1 = y0 + 1 >= 0 && y0 + 1 < h;

        float* out_px = dp + r * row_stride + col * c;
        for (std::int64_t ch = 0; ch < c; ++ch) {
          double acc = 0.0;
          if (in_y0 && in_x0) acc += w00 * sp[y0 * row_stride + x0 * c + ch];
          if (in_y0 && in_x1) acc += w01 * sp[y0 * row_stride + (x0 + 1) * c + ch];
          if (in_y1 && in_x0) acc += w10 * sp[(y0 + 1) * row_stride + x0 * c + ch];
          if (in_y1 && in_x1) acc += w11 * sp[(y0 + 1) * row_stride + (x0 + 1) * c + ch];
          out_px[ch] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

}  // namespace redcane::attack
