#include "energy/op_counter.hpp"

#include <cstdio>
#include <cstdlib>

namespace redcane::energy {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

}  // namespace

OpCounts& OpCounts::operator+=(const OpCounts& o) {
  add += o.add;
  mul += o.mul;
  div += o.div;
  exp += o.exp;
  sqrt += o.sqrt;
  return *this;
}

std::uint64_t OpCounts::of(OpType t) const {
  switch (t) {
    case OpType::kAdd: return add;
    case OpType::kMul: return mul;
    case OpType::kDiv: return div;
    case OpType::kExp: return exp;
    case OpType::kSqrt: return sqrt;
  }
  std::fprintf(stderr, "redcane::energy fatal: bad op type\n");
  std::abort();
}

double OpCounts::energy_pj(const UnitEnergy& ue) const {
  return static_cast<double>(add) * ue.add_pj + static_cast<double>(mul) * ue.mul_pj +
         static_cast<double>(div) * ue.div_pj + static_cast<double>(exp) * ue.exp_pj +
         static_cast<double>(sqrt) * ue.sqrt_pj;
}

double OpCounts::energy_share(OpType t, const UnitEnergy& ue) const {
  const double total = energy_pj(ue);
  if (total <= 0.0) return 0.0;
  return static_cast<double>(of(t)) * ue.of(t) / total;
}

OpCounts conv_ops(std::int64_t ho, std::int64_t wo, std::int64_t cout, std::int64_t k,
                  std::int64_t cin, bool bias) {
  OpCounts c;
  const std::int64_t taps = k * k * cin;
  c.mul = u(ho * wo * cout * taps);
  c.add = u(ho * wo * cout * (taps - 1 + (bias ? 1 : 0)));
  return c;
}

OpCounts squash_ops(std::int64_t capsules, std::int64_t dim) {
  // |s|^2: dim muls + (dim-1) adds; 1 + |s|^2: 1 add; sqrt: 1;
  // scale factor: 1 div; scaling: dim muls.
  OpCounts c;
  c.mul = u(capsules * 2 * dim);
  c.add = u(capsules * dim);
  c.sqrt = u(capsules);
  c.div = u(capsules);
  return c;
}

OpCounts softmax_ops(std::int64_t lanes, std::int64_t extent) {
  OpCounts c;
  c.exp = u(lanes * extent);
  c.add = u(lanes * (extent - 1));
  c.div = u(lanes * extent);
  return c;
}

OpCounts routing_ops(std::int64_t m, std::int64_t in_caps, std::int64_t out_caps,
                     std::int64_t dim, int iterations) {
  OpCounts c;
  for (int it = 0; it < iterations; ++it) {
    // c = softmax_j(b): one lane per (m, i).
    c += softmax_ops(m * in_caps, out_caps);
    // s = sum_i c * u_hat.
    OpCounts s;
    s.mul = u(m * in_caps * out_caps * dim);
    s.add = u(m * in_caps * out_caps * dim);
    c += s;
    // v = squash(s).
    c += squash_ops(m * out_caps, dim);
    if (it + 1 < iterations) {
      // b += <u_hat, v>.
      OpCounts b;
      b.mul = u(m * in_caps * out_caps * dim);
      b.add = u(m * in_caps * out_caps * dim);
      c += b;
    }
  }
  return c;
}

std::vector<LayerOps> count_capsnet_layers(const capsnet::CapsNetConfig& cfg) {
  std::vector<LayerOps> layers;
  const std::int64_t h1 = capsnet::conv_out_extent(cfg.input_hw, cfg.conv1_kernel, 1, 0);
  layers.push_back(
      {"Conv1", conv_ops(h1, h1, cfg.conv1_channels, cfg.conv1_kernel, cfg.input_channels,
                         /*bias=*/true)});

  const std::int64_t h2 = capsnet::conv_out_extent(h1, cfg.primary_kernel, cfg.primary_stride, 0);
  OpCounts primary = conv_ops(h2, h2, cfg.primary_types * cfg.primary_dim, cfg.primary_kernel,
                              cfg.conv1_channels, /*bias=*/true);
  primary += squash_ops(h2 * h2 * cfg.primary_types, cfg.primary_dim);
  layers.push_back({"PrimaryCaps", primary});

  const std::int64_t in_caps = h2 * h2 * cfg.primary_types;
  OpCounts cc;
  // Votes: u_hat[i,j] = W[i,j] u_i.
  cc.mul = u(in_caps * cfg.num_classes * cfg.primary_dim * cfg.class_dim);
  cc.add = u(in_caps * cfg.num_classes * cfg.primary_dim * cfg.class_dim);
  cc += routing_ops(1, in_caps, cfg.num_classes, cfg.class_dim, cfg.routing_iters);
  layers.push_back({"ClassCaps", cc});
  return layers;
}

std::vector<LayerOps> count_deepcaps_layers(const capsnet::DeepCapsConfig& cfg) {
  std::vector<LayerOps> layers;
  const std::int64_t t = cfg.types;
  std::int64_t hw = capsnet::conv_out_extent(cfg.input_hw, 3, 1, 1);

  layers.push_back({"Conv2D", conv_ops(hw, hw, t * cfg.dim_block1, 3, cfg.input_channels,
                                       /*bias=*/true)});

  int caps_id = 1;
  auto caps2d = [&](std::int64_t ho, std::int64_t in_dim, std::int64_t out_dim) {
    OpCounts c = conv_ops(ho, ho, t * out_dim, 3, t * in_dim, /*bias=*/true);
    c += squash_ops(ho * ho * t, out_dim);
    layers.push_back({"Caps2D" + std::to_string(caps_id++), c});
  };

  for (int blk = 0; blk < 4; ++blk) {
    const std::int64_t in_dim = (blk == 0) ? cfg.dim_block1 : ((blk == 1) ? cfg.dim_block1
                                                                          : cfg.dim_rest);
    const std::int64_t out_dim = (blk == 0) ? cfg.dim_block1 : cfg.dim_rest;
    const std::int64_t ho = capsnet::conv_out_extent(hw, 3, 2, 1);  // Strided entry layer.
    caps2d(ho, in_dim, out_dim);                                     // a (strided)
    caps2d(ho, out_dim, out_dim);                                    // b
    caps2d(ho, out_dim, out_dim);                                    // c
    if (blk < 3) {
      caps2d(ho, out_dim, out_dim);  // d (skip)
    } else {
      // Caps3D: convolutional votes + spatial routing.
      OpCounts c3;
      c3.mul = u(ho * ho * 3 * 3 * t * cfg.dim_rest * t * cfg.dim_rest);
      c3.add = c3.mul;
      c3 += routing_ops(ho * ho, t, t, cfg.dim_rest, cfg.routing_iters);
      layers.push_back({"Caps3D", c3});
    }
    // Residual sum of the two branches.
    OpCounts res;
    res.add = u(ho * ho * t * out_dim);
    layers.back().ops += res;
    hw = ho;
  }

  const std::int64_t in_caps = hw * hw * t;
  OpCounts cc;
  cc.mul = u(in_caps * cfg.num_classes * cfg.dim_rest * cfg.class_dim);
  cc.add = cc.mul;
  cc += routing_ops(1, in_caps, cfg.num_classes, cfg.class_dim, cfg.routing_iters);
  layers.push_back({"ClassCaps", cc});
  return layers;
}

namespace {

OpCounts sum_layers(const std::vector<LayerOps>& layers) {
  OpCounts total;
  for (const LayerOps& l : layers) total += l.ops;
  return total;
}

}  // namespace

OpCounts count_capsnet(const capsnet::CapsNetConfig& cfg) {
  return sum_layers(count_capsnet_layers(cfg));
}

OpCounts count_deepcaps(const capsnet::DeepCapsConfig& cfg) {
  return sum_layers(count_deepcaps_layers(cfg));
}

}  // namespace redcane::energy
