#include "capsnet/class_caps.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "backend/emulation.hpp"
#include "quant/lut_gemm.hpp"
#include "tensor/workspace.hpp"
#include "util/pool.hpp"

namespace redcane::capsnet {

ClassCaps::ClassCaps(std::string name, const ClassCapsSpec& spec, Rng& rng)
    : name_(std::move(name)),
      spec_(spec),
      w_(name_ + ".w", Tensor(Shape{spec.in_caps, spec.out_caps, spec.in_dim, spec.out_dim})) {
  nn::he_init(w_.value, spec.in_dim, rng);
}

Tensor ClassCaps::compute_votes(const Tensor& x) const {
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t ic = spec_.in_caps;
  const std::int64_t id = spec_.in_dim;
  const std::int64_t oc = spec_.out_caps;
  const std::int64_t od = spec_.out_dim;
  Tensor votes(Shape{n, ic, oc, od});
  const auto xd = x.data();
  const auto wd = w_.value.data();
  auto vd = votes.data();
  // One sample's votes are ic * oc * id * od multiply-adds of a few tenths
  // of a nanosecond each (the inner loop vectorizes over od).
  const double sample_ns = 0.25 * static_cast<double>(ic * oc * id * od);
  pool::parallel_for(n, sample_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t ni = first; ni < last; ++ni) {
      for (std::int64_t i = 0; i < ic; ++i) {
        const std::size_t xbase = static_cast<std::size_t>((ni * ic + i) * id);
        for (std::int64_t j = 0; j < oc; ++j) {
          const std::size_t wbase = static_cast<std::size_t>(((i * oc + j) * id) * od);
          const std::size_t vbase = static_cast<std::size_t>(((ni * ic + i) * oc + j) * od);
          for (std::int64_t p = 0; p < id; ++p) {
            // No zero-skip: 0 * NaN / 0 * Inf must propagate (same IEEE
            // contract as the GEMM core and the routing rewrite).
            const float xv = xd[xbase + static_cast<std::size_t>(p)];
            const std::size_t wrow = wbase + static_cast<std::size_t>(p * od);
            for (std::int64_t q = 0; q < od; ++q) {
              vd[vbase + static_cast<std::size_t>(q)] +=
                  xv * wd[wrow + static_cast<std::size_t>(q)];
            }
          }
        }
      }
    }
  });
  return votes;
}

Tensor ClassCaps::compute_votes_emulated(const Tensor& x,
                                         const backend::SiteUnit& unit) const {
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t ic = spec_.in_caps;
  const std::int64_t id = spec_.in_dim;
  const std::int64_t oc = spec_.out_caps;
  const std::int64_t od = spec_.out_dim;
  const std::int64_t jd = oc * od;
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const quant::QuantOperands q(x, w_.value, unit.unit.mul, unit.bits, wksp);

  // One grouped LUT-GEMM over the ic input capsules: group i computes
  // votes[:, i, j, :] = x[:, i, :] (codes [n, id], laid out for the
  // orientation the shape rule picks) * W[i] (codes packed [id, oc*od]),
  // all sharing one product table and one pair of quantization params.
  const gemm::lk::Lanes lanes = quant::lut_lanes(n, jd, id);
  const bool tap_major = lanes == gemm::lk::Lanes::kPositions;
  std::uint8_t* a_pack = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(ic * n * id));
  std::uint8_t* b_pack = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(ic * id * jd));
  for (std::int64_t i = 0; i < ic; ++i) {
    std::uint8_t* a_i = a_pack + i * n * id;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const std::uint8_t* src = q.qa + (ni * ic + i) * id;
      for (std::int64_t p = 0; p < id; ++p) a_i[tap_major ? p * n + ni : ni * id + p] = src[p];
    }
    // W is [I, J, in_dim, out_dim]: transpose the (J, in_dim) block of
    // capsule i into the row-major [in_dim, J*out_dim] GEMM operand.
    for (std::int64_t j = 0; j < oc; ++j) {
      for (std::int64_t p = 0; p < id; ++p) {
        std::memcpy(b_pack + (i * id + p) * jd + j * od, q.qb + ((i * oc + j) * id + p) * od,
                    static_cast<std::size_t>(od));
      }
    }
  }
  gemm::lk::LutProblem prob;
  prob.lanes = lanes;
  prob.m = n;
  prob.n = jd;
  prob.k = id;
  prob.groups = ic;
  prob.a = a_pack;
  prob.a_group = n * id;
  prob.b = b_pack;
  prob.b_group = id * jd;
  Tensor votes(Shape{n, ic, oc, od});
  quant::lut_gemm_dequant(prob, q.pa, q.pb, *q.tables, unit.unit.adder, nullptr,
                          quant::LutOutput{votes.data().data(), ic * jd, jd});
  return votes;
}

Tensor ClassCaps::forward_votes(const Tensor& x, bool train, PerturbationHook* hook) {
  if (x.shape().rank() != 3 || x.shape().dim(1) != spec_.in_caps ||
      x.shape().dim(2) != spec_.in_dim) {
    std::fprintf(stderr, "redcane::capsnet fatal: ClassCaps input shape mismatch (%s)\n",
                 x.shape().to_string().c_str());
    std::abort();
  }
  const backend::SiteUnit* emu = train ? nullptr : backend::active_mac_unit(name_);
  Tensor votes = emu != nullptr ? compute_votes_emulated(x, *emu) : compute_votes(x);
  emit(hook, name_, OpKind::kMacOutput, votes);
  if (train) {
    cached_x_ = x;
    cached_votes_ = votes;
  }
  return votes;
}

Tensor ClassCaps::forward_routing(const Tensor& votes, bool train, PerturbationHook* hook) {
  RoutingResult routed = dynamic_routing(votes, spec_.routing_iters, hook, name_);
  if (train) cached_routing_ = routed;
  return routed.v;
}

Tensor ClassCaps::forward(const Tensor& x, bool train, PerturbationHook* hook) {
  return forward_routing(forward_votes(x, train, hook), train, hook);
}

Tensor ClassCaps::backward(const Tensor& grad_out) {
  const Tensor grad_votes = routing_backward(cached_votes_, cached_routing_, grad_out);
  const std::int64_t n = cached_x_.shape().dim(0);
  const std::int64_t ic = spec_.in_caps;
  const std::int64_t id = spec_.in_dim;
  const std::int64_t oc = spec_.out_caps;
  const std::int64_t od = spec_.out_dim;

  Tensor grad_x(cached_x_.shape());
  const auto xd = cached_x_.data();
  const auto gv = grad_votes.data();
  const auto wd = w_.value.data();
  auto gw = w_.grad.data();
  auto gx = grad_x.data();
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t i = 0; i < ic; ++i) {
      const std::size_t xbase = static_cast<std::size_t>((ni * ic + i) * id);
      for (std::int64_t j = 0; j < oc; ++j) {
        const std::size_t wbase = static_cast<std::size_t>(((i * oc + j) * id) * od);
        const std::size_t vbase = static_cast<std::size_t>(((ni * ic + i) * oc + j) * od);
        for (std::int64_t p = 0; p < id; ++p) {
          const float xv = xd[xbase + static_cast<std::size_t>(p)];
          const std::size_t wrow = wbase + static_cast<std::size_t>(p * od);
          float gxacc = 0.0F;
          for (std::int64_t q = 0; q < od; ++q) {
            const float g = gv[vbase + static_cast<std::size_t>(q)];
            gw[wrow + static_cast<std::size_t>(q)] += xv * g;
            gxacc += wd[wrow + static_cast<std::size_t>(q)] * g;
          }
          gx[xbase + static_cast<std::size_t>(p)] += gxacc;
        }
      }
    }
  }
  return grad_x;
}

}  // namespace redcane::capsnet
