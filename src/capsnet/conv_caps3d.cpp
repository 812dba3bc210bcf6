#include "capsnet/conv_caps3d.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "backend/emulation.hpp"
#include "nn/im2col.hpp"
#include "quant/lut_gemm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"

namespace redcane::capsnet {
namespace {

// The vote computation is a grouped convolution: each input capsule type i
// is convolved independently (cin = in_dim) with its own weight slice
// [K, K, in_dim, out_types*out_dim] to produce votes[:, i, :]. The helpers
// below gather/scatter the per-type planes so each group is a plain
// im2col + GEMM on the shared core.

/// Copies x[n, h, w, i, :] (rank-5, row-major) into a dense [n, h, w, di]
/// plane for type `i`.
void gather_type_plane(const float* x, std::int64_t spatial, std::int64_t ti, std::int64_t di,
                       std::int64_t i, float* plane) {
  const float* src = x + i * di;
  const std::int64_t xstride = ti * di;
  for (std::int64_t s = 0; s < spatial; ++s) {
    for (std::int64_t p = 0; p < di; ++p) plane[s * di + p] = src[s * xstride + p];
  }
}

}  // namespace

ConvCaps3D::ConvCaps3D(std::string name, const ConvCaps3DSpec& spec, Rng& rng)
    : name_(std::move(name)),
      spec_(spec),
      w_(name_ + ".w", Tensor(Shape{spec.in_types, spec.kernel, spec.kernel, spec.in_dim,
                                    spec.out_types * spec.out_dim})) {
  nn::he_init(w_.value, spec.kernel * spec.kernel * spec.in_dim, rng);
}

Tensor ConvCaps3D::compute_votes(const Tensor& x, std::int64_t& ho, std::int64_t& wo) const {
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t h = x.shape().dim(1);
  const std::int64_t w = x.shape().dim(2);
  const std::int64_t ti = spec_.in_types;
  const std::int64_t di = spec_.in_dim;
  const std::int64_t jd = spec_.out_types * spec_.out_dim;

  const nn::ConvDims d = nn::make_conv_dims(Shape{n, h, w, di}, spec_.kernel, spec_.kernel,
                                            jd, spec_.stride, spec_.pad);
  ho = d.ho;
  wo = d.wo;
  const std::int64_t m = d.rows();
  const std::int64_t k = d.cols();

  Tensor votes(Shape{m, ti, spec_.out_types, spec_.out_dim});
  const auto xd = x.data();
  const auto wd = w_.value.data();
  auto vd = votes.data();

  // All per-type staging (gathered plane, patch matrix, vote slab) lives
  // in the per-thread arena and is reused across the ti group iterations.
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  float* plane = wksp.alloc<float>(static_cast<std::size_t>(n * h * w * di));
  float* cols = wksp.alloc<float>(static_cast<std::size_t>(m * k));
  float* votes_i = wksp.alloc<float>(static_cast<std::size_t>(m * jd));
  for (std::int64_t i = 0; i < ti; ++i) {
    gather_type_plane(xd.data(), n * h * w, ti, di, i, plane);
    nn::im2col(plane, d, cols);
    // votes_i [M, jd] = cols [M, K] * w_i [K, jd]; the weight slice for
    // type i is contiguous in [ti, K, K, di, jd] layout.
    gemm::gemm_f32(false, false, m, jd, k, cols, &wd[static_cast<std::size_t>(i * k * jd)],
                   0.0F, votes_i);
    for (std::int64_t r = 0; r < m; ++r) {
      float* dst = &vd[static_cast<std::size_t>((r * ti + i) * jd)];
      const float* src = &votes_i[static_cast<std::size_t>(r * jd)];
      for (std::int64_t q = 0; q < jd; ++q) dst[q] = src[q];
    }
  }
  return votes;
}

Tensor ConvCaps3D::compute_votes_emulated(const Tensor& x, std::int64_t& ho,
                                          std::int64_t& wo,
                                          const backend::SiteUnit& unit) const {
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t h = x.shape().dim(1);
  const std::int64_t w = x.shape().dim(2);
  const std::int64_t ti = spec_.in_types;
  const std::int64_t di = spec_.in_dim;
  const std::int64_t jd = spec_.out_types * spec_.out_dim;

  const nn::ConvDims d = nn::make_conv_dims(Shape{n, h, w, di}, spec_.kernel, spec_.kernel,
                                            jd, spec_.stride, spec_.pad);
  ho = d.ho;
  wo = d.wo;
  const std::int64_t m = d.rows();
  const std::int64_t k = d.cols();

  // R(X) is the whole input tensor's range (the paper's per-tensor
  // definition), so all ti groups quantize against one parameter pair and
  // share one product table per layer call.
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const quant::QuantOperands q(x, w_.value, unit.unit.mul, unit.bits, wksp);

  // One grouped LUT-GEMM for all ti types: each type's patch codes are
  // lowered straight from its channel slice of the rank-5 codes, and the
  // padding mask (the same for every type) is written once and shared.
  gemm::lk::LutProblem p;
  p.m = m;
  p.n = jd;
  p.k = k;
  p.lanes = quant::lut_lanes(m, jd, k);
  p.groups = ti;
  std::uint8_t* cols = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(ti * m * k));
  std::uint8_t* mask =
      d.pad > 0 ? wksp.alloc<std::uint8_t>(static_cast<std::size_t>(m * k)) : nullptr;
  for (std::int64_t i = 0; i < ti; ++i) {
    nn::im2col_codes(q.qa + i * di, d, cols + i * m * k, i == 0 ? mask : nullptr,
                     p.lanes == gemm::lk::Lanes::kPositions, ti * di);
  }
  p.a = cols;
  p.a_group = m * k;
  p.mask = mask;
  p.b = q.qb;
  p.b_group = k * jd;
  Tensor votes(Shape{m, ti, spec_.out_types, spec_.out_dim});
  quant::lut_gemm_dequant(p, q.pa, q.pb, *q.tables, unit.unit.adder, nullptr,
                          quant::LutOutput{votes.data().data(), ti * jd, jd});
  return votes;
}

Tensor ConvCaps3D::forward(const Tensor& x, bool train, PerturbationHook* hook) {
  if (x.shape().rank() != 5 || x.shape().dim(3) != spec_.in_types ||
      x.shape().dim(4) != spec_.in_dim) {
    std::fprintf(stderr, "redcane::capsnet fatal: ConvCaps3D input shape mismatch (%s)\n",
                 x.shape().to_string().c_str());
    std::abort();
  }
  std::int64_t ho = 0;
  std::int64_t wo = 0;
  const backend::SiteUnit* emu = train ? nullptr : backend::active_mac_unit(name_);
  Tensor votes = emu != nullptr ? compute_votes_emulated(x, ho, wo, *emu)
                                : compute_votes(x, ho, wo);
  emit(hook, name_, OpKind::kMacOutput, votes);

  RoutingResult routed = dynamic_routing(votes, spec_.routing_iters, hook, name_);
  if (train) {
    cached_x_ = x;
    cached_votes_ = votes;
    cached_routing_ = routed;
    cached_ho_ = ho;
    cached_wo_ = wo;
  }
  const std::int64_t n = x.shape().dim(0);
  return routed.v.reshaped(Shape{n, ho, wo, spec_.out_types, spec_.out_dim});
}

Tensor ConvCaps3D::backward(const Tensor& grad_out) {
  const std::int64_t n = cached_x_.shape().dim(0);
  const std::int64_t h = cached_x_.shape().dim(1);
  const std::int64_t w = cached_x_.shape().dim(2);
  const std::int64_t ti = spec_.in_types;
  const std::int64_t di = spec_.in_dim;
  const std::int64_t to = spec_.out_types;
  const std::int64_t dd = spec_.out_dim;
  const std::int64_t jd = to * dd;

  const Tensor grad_v =
      grad_out.reshaped(Shape{n * cached_ho_ * cached_wo_, to, dd});
  const Tensor grad_votes = routing_backward(cached_votes_, cached_routing_, grad_v);

  const nn::ConvDims d = nn::make_conv_dims(Shape{n, h, w, di}, spec_.kernel, spec_.kernel,
                                            jd, spec_.stride, spec_.pad);
  const std::int64_t m = d.rows();
  const std::int64_t k = d.cols();

  Tensor grad_x(cached_x_.shape());
  const auto xd = cached_x_.data();
  const auto gv = grad_votes.data();
  const auto wd = w_.value.data();
  auto gw = w_.grad.data();
  auto gx = grad_x.data();

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const std::size_t plane_elems = static_cast<std::size_t>(n * h * w * di);
  float* plane = wksp.alloc<float>(plane_elems);
  float* cols = wksp.alloc<float>(static_cast<std::size_t>(m * k));
  float* gv_i = wksp.alloc<float>(static_cast<std::size_t>(m * jd));
  float* grad_cols = wksp.alloc<float>(static_cast<std::size_t>(m * k));
  float* grad_plane = wksp.alloc<float>(plane_elems);
  for (std::int64_t i = 0; i < ti; ++i) {
    for (std::int64_t r = 0; r < m; ++r) {
      const float* src = &gv[static_cast<std::size_t>((r * ti + i) * jd)];
      float* dst = &gv_i[static_cast<std::size_t>(r * jd)];
      for (std::int64_t q = 0; q < jd; ++q) dst[q] = src[q];
    }
    // grad_w_i [K, jd] += cols_i^T [K, M] * grad_votes_i [M, jd].
    gather_type_plane(xd.data(), n * h * w, ti, di, i, plane);
    nn::im2col(plane, d, cols);
    gemm::gemm_f32(true, false, k, jd, m, cols, gv_i, 1.0F,
                   &gw[static_cast<std::size_t>(i * k * jd)]);
    // grad_cols_i [M, K] = grad_votes_i [M, jd] * w_i^T [jd, K].
    gemm::gemm_f32(false, true, m, k, jd, gv_i,
                   &wd[static_cast<std::size_t>(i * k * jd)], 0.0F, grad_cols);
    std::fill(grad_plane, grad_plane + plane_elems, 0.0F);
    nn::col2im(grad_cols, d, grad_plane);
    const std::int64_t xstride = ti * di;
    float* gdst = gx.data() + i * di;
    for (std::int64_t s = 0; s < n * h * w; ++s) {
      for (std::int64_t p = 0; p < di; ++p) gdst[s * xstride + p] = grad_plane[s * di + p];
    }
  }
  return grad_x;
}

}  // namespace redcane::capsnet
