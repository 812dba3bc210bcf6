#include "quant/approx_conv.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "nn/im2col.hpp"
#include "tensor/workspace.hpp"

namespace redcane::quant {
namespace {

nn::ConvDims dims_of(const Tensor& x, const Tensor& w, const ApproxConvSpec& spec) {
  return nn::make_conv_dims(x.shape(), w.shape(), spec.stride, spec.pad);
}

}  // namespace

Tensor approx_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                     const ApproxConvSpec& spec, const MacUnit& unit) {
  const nn::ConvDims d = dims_of(x, w, spec);

  // All staging — operand code pools and the code patch matrix (laid out
  // for the orientation the shape rule picks) with its validity mask —
  // comes from the per-thread arena; the product table is served by the
  // process-wide cache (one build per (multiplier, bits) for the whole
  // process). Padding taps are masked out so they contribute true zero to
  // every accumulator of the affine expansion the shared LUT-GEMM core
  // evaluates (quant/lut_gemm.hpp); an unpadded conv needs no mask.
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const QuantOperands q(x, w, unit.mul, spec.bits, wksp);

  gemm::lk::LutProblem p;
  p.m = d.rows();
  p.n = d.cout;
  p.k = d.cols();
  p.lanes = lut_lanes(p.m, p.n, p.k);
  std::uint8_t* cols = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(p.m * p.k));
  std::uint8_t* mask =
      d.pad > 0 ? wksp.alloc<std::uint8_t>(static_cast<std::size_t>(p.m * p.k)) : nullptr;
  nn::im2col_codes(q.qa, d, cols, mask, p.lanes == gemm::lk::Lanes::kPositions);
  p.a = cols;
  p.mask = mask;
  p.b = q.qb;

  Tensor out(Shape{d.n, d.ho, d.wo, d.cout});
  lut_gemm_dequant(p, q.pa, q.pb, *q.tables, unit.adder,
                   bias.empty() ? nullptr : bias.data().data(),
                   LutOutput{out.data().data(), d.cout, 0});
  return out;
}

Tensor approx_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                     const ApproxConvSpec& spec, const approx::Multiplier& mul) {
  return approx_conv2d(x, w, bias, spec, MacUnit{&mul, nullptr});
}

Tensor reference_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                        const ApproxConvSpec& spec) {
  const nn::ConvDims d = dims_of(x, w, spec);
  const std::int64_t m = d.rows();
  const std::int64_t k = d.cols();
  const Tensor cols = nn::im2col(x, d);
  Tensor out(Shape{d.n, d.ho, d.wo, d.cout});
  auto od = out.data();
  const auto cd = cols.data();
  const auto wd = w.data();
  const bool has_bias = !bias.empty();
  // Exact-arithmetic GEMM with double accumulators, kept separate from the
  // float core so quantization/approximation error is measured against a
  // higher-precision reference.
  std::vector<double> acc(static_cast<std::size_t>(d.cout));
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t co = 0; co < d.cout; ++co) {
      acc[static_cast<std::size_t>(co)] = has_bias ? static_cast<double>(bias.at(co)) : 0.0;
    }
    const float* crow = &cd[static_cast<std::size_t>(r * k)];
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double cv = crow[kk];
      const float* wrow = &wd[static_cast<std::size_t>(kk * d.cout)];
      for (std::int64_t co = 0; co < d.cout; ++co) {
        acc[static_cast<std::size_t>(co)] += cv * static_cast<double>(wrow[co]);
      }
    }
    float* orow = &od[static_cast<std::size_t>(r * d.cout)];
    for (std::int64_t co = 0; co < d.cout; ++co) {
      orow[co] = static_cast<float>(acc[static_cast<std::size_t>(co)]);
    }
  }
  return out;
}

}  // namespace redcane::quant
