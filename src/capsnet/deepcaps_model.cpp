#include "capsnet/deepcaps_model.hpp"

#include <cstdio>
#include <cstdlib>

#include "tensor/ops.hpp"

namespace redcane::capsnet {
namespace {

ConvCaps2DSpec caps_spec(std::int64_t in_types, std::int64_t in_dim, std::int64_t out_types,
                         std::int64_t out_dim, std::int64_t stride) {
  ConvCaps2DSpec s;
  s.in_types = in_types;
  s.in_dim = in_dim;
  s.out_types = out_types;
  s.out_dim = out_dim;
  s.kernel = 3;
  s.stride = stride;
  s.pad = 1;
  return s;
}

}  // namespace

DeepCapsConfig DeepCapsConfig::paper() { return DeepCapsConfig{}; }

DeepCapsConfig DeepCapsConfig::tiny() {
  DeepCapsConfig c;
  c.input_hw = 16;
  c.types = 4;
  c.dim_block1 = 4;
  c.dim_rest = 4;  // Paper: 8; halved so single-core sweeps stay affordable.
  c.class_dim = 8;
  return c;
}

std::optional<ParamLayout> DeepCapsConfig::param_layout() const {
  std::int64_t hw = conv_out_extent(input_hw, 3, 1, 1);        // Stem.
  for (int k = 0; k < 4; ++k) hw = conv_out_extent(hw, 3, 2, 1);  // Strided entries.
  if (hw <= 0) return std::nullopt;
  const std::int64_t t = types;
  ParamLayout l;
  // A 3x3 conv (w, b) followed by batch norm (gamma, beta, mean, var).
  const auto conv_bn = [&l](std::int64_t cin, std::int64_t cout) {
    l.tensors += 6;
    l.floats += 9 * cin * cout + 5 * cout;
  };
  conv_bn(input_channels, t * dim_block1);
  for (int i = 0; i < 4; ++i) conv_bn(t * dim_block1, t * dim_block1);  // Block 1.
  conv_bn(t * dim_block1, t * dim_rest);                               // Block 2 entry.
  for (int i = 0; i < 10; ++i) conv_bn(t * dim_rest, t * dim_rest);     // The rest.
  l.tensors += 2;  // Caps3D w, ClassCaps w.
  l.floats += t * 9 * dim_rest * t * dim_rest + hw * hw * t * num_classes * dim_rest * class_dim;
  return l;
}

DeepCapsModel::DeepCapsModel(const DeepCapsConfig& cfg, Rng& rng) : cfg_(cfg) {
  nn::Conv2DSpec c1;
  c1.in_channels = cfg.input_channels;
  c1.out_channels = cfg.types * cfg.dim_block1;
  c1.kernel = 3;
  c1.stride = 1;
  c1.pad = 1;
  conv1_ = std::make_unique<nn::Conv2D>("Conv2D", c1, rng);
  bn1_ = std::make_unique<nn::BatchNorm>("Conv2D.bn", c1.out_channels);
  relu1_ = std::make_unique<nn::ReLU>();

  const std::int64_t t = cfg.types;
  int caps_id = 1;
  auto make_caps = [&](std::int64_t in_dim, std::int64_t out_dim, std::int64_t stride) {
    return std::make_unique<ConvCaps2D>("Caps2D" + std::to_string(caps_id++),
                                        caps_spec(t, in_dim, t, out_dim, stride), rng);
  };

  // Block 1: 4D capsules throughout.
  blocks_[0].a = make_caps(cfg.dim_block1, cfg.dim_block1, 2);
  blocks_[0].b = make_caps(cfg.dim_block1, cfg.dim_block1, 1);
  blocks_[0].c = make_caps(cfg.dim_block1, cfg.dim_block1, 1);
  blocks_[0].d = make_caps(cfg.dim_block1, cfg.dim_block1, 1);
  // Block 2: transition to 8D.
  blocks_[1].a = make_caps(cfg.dim_block1, cfg.dim_rest, 2);
  blocks_[1].b = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[1].c = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[1].d = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  // Block 3.
  blocks_[2].a = make_caps(cfg.dim_rest, cfg.dim_rest, 2);
  blocks_[2].b = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[2].c = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[2].d = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  // Block 4: skip branch is the routed ConvCaps3D.
  blocks_[3].a = make_caps(cfg.dim_rest, cfg.dim_rest, 2);
  blocks_[3].b = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[3].c = make_caps(cfg.dim_rest, cfg.dim_rest, 1);
  blocks_[3].d = nullptr;

  ConvCaps3DSpec s3;
  s3.in_types = t;
  s3.in_dim = cfg.dim_rest;
  s3.out_types = t;
  s3.out_dim = cfg.dim_rest;
  s3.kernel = 3;
  s3.stride = 1;
  s3.pad = 1;
  s3.routing_iters = cfg.routing_iters;
  caps3d_ = std::make_unique<ConvCaps3D>("Caps3D", s3, rng);

  // Spatial extent after the stem (stride 1, pad 1 keeps H) and four
  // stride-2 blocks: H_k = (H_{k-1} + 2*1 - 3)/2 + 1.
  std::int64_t hw = cfg.input_hw;
  for (int k = 0; k < 4; ++k) hw = (hw + 2 - 3) / 2 + 1;

  ClassCapsSpec cs;
  cs.in_caps = hw * hw * t;
  cs.in_dim = cfg.dim_rest;
  cs.out_caps = cfg.num_classes;
  cs.out_dim = cfg.class_dim;
  cs.routing_iters = cfg.routing_iters;
  class_caps_ = std::make_unique<ClassCaps>("ClassCaps", cs, rng);
}

Tensor DeepCapsModel::forward(const Tensor& x, bool train, PerturbationHook* hook) {
  // Identical op sequence to forward_range(0, num_stages()): the two paths
  // must stay bit-equal so checkpointed sweeps match full evaluations.
  Tensor t = conv1_->forward(x, train);
  t = bn1_->forward(t, train);
  emit(hook, "Conv2D", OpKind::kMacOutput, t);
  t = relu1_->forward(t, train);
  emit(hook, "Conv2D", OpKind::kActivation, t);
  if (train) conv_out_shape_ = t.shape();
  Tensor caps = t.reshaped(Shape{t.shape().dim(0), t.shape().dim(1), t.shape().dim(2),
                                 cfg_.types, cfg_.dim_block1});

  for (int k = 0; k < 4; ++k) {
    Block& blk = blocks_[k];
    const Tensor s = blk.a->forward(caps, train, hook);
    Tensor main = blk.b->forward(s, train, hook);
    main = blk.c->forward(main, train, hook);
    const Tensor skip = (k < 3) ? blk.d->forward(s, train, hook)
                                : caps3d_->forward(s, train, hook);
    caps = ops::add(main, skip);
  }

  if (train) pre_flatten_shape_ = caps.shape();
  const std::int64_t n = caps.shape().dim(0);
  const std::int64_t in_caps =
      caps.shape().dim(1) * caps.shape().dim(2) * caps.shape().dim(3);
  const Tensor flat = caps.reshaped(Shape{n, in_caps, caps.shape().dim(4)});
  return class_caps_->forward(flat, train, hook);
}

Tensor DeepCapsModel::forward_range(int first, int last, StageState& state,
                                    PerturbationHook* hook, bool record) {
  // Stages never mutate their input tensors, so the entry boundary (which
  // may be a shared prefix-cache checkpoint) is read in place, not copied.
  std::vector<Tensor> scratch;
  const std::vector<Tensor>* cur = &state.at[static_cast<std::size_t>(first)];
  for (int k = first; k < last; ++k) {
    std::vector<Tensor> next;
    if (k == 0) {
      Tensor t = conv1_->forward((*cur)[0], /*train=*/false);
      t = bn1_->forward(t, /*train=*/false);
      emit(hook, "Conv2D", OpKind::kMacOutput, t);
      next = {std::move(t)};
    } else if (k == 1) {
      Tensor t = relu1_->forward((*cur)[0], /*train=*/false);
      emit(hook, "Conv2D", OpKind::kActivation, t);
      next = {t.reshaped(Shape{t.shape().dim(0), t.shape().dim(1), t.shape().dim(2),
                               cfg_.types, cfg_.dim_block1})};
    } else if (k == 14) {
      const Tensor& caps = (*cur)[0];
      const std::int64_t n = caps.shape().dim(0);
      const std::int64_t in_caps =
          caps.shape().dim(1) * caps.shape().dim(2) * caps.shape().dim(3);
      const Tensor flat = caps.reshaped(Shape{n, in_caps, caps.shape().dim(4)});
      next = {class_caps_->forward(flat, /*train=*/false, hook)};
    } else {
      Block& blk = blocks_[(k - 2) / 3];
      const int phase = (k - 2) % 3;
      if (phase == 0) {
        // Strided entry layer; its output feeds both branches.
        next = {blk.a->forward((*cur)[0], /*train=*/false, hook)};
      } else if (phase == 1) {
        // Main pair; the entry tensor rides along for the skip branch.
        Tensor main = blk.b->forward((*cur)[0], /*train=*/false, hook);
        main = blk.c->forward(main, /*train=*/false, hook);
        next = {(*cur)[0], std::move(main)};
      } else {
        const bool routed = (k - 2) / 3 == 3;
        const Tensor skip = routed ? caps3d_->forward((*cur)[0], /*train=*/false, hook)
                                   : blk.d->forward((*cur)[0], /*train=*/false, hook);
        next = {ops::add((*cur)[1], skip)};
      }
    }
    if (record) {
      state.at[static_cast<std::size_t>(k) + 1] = std::move(next);
      cur = &state.at[static_cast<std::size_t>(k) + 1];
    } else {
      scratch = std::move(next);
      cur = &scratch;
    }
  }
  return last == num_stages() ? (*cur)[0] : Tensor();
}

Tensor DeepCapsModel::backward(const Tensor& grad_v) {
  Tensor g = class_caps_->backward(grad_v);
  g = g.reshaped(pre_flatten_shape_);

  for (int k = 3; k >= 0; --k) {
    Block& blk = blocks_[k];
    // Sum node: both branches receive the full upstream gradient.
    Tensor g_main = blk.c->backward(g);
    g_main = blk.b->backward(g_main);
    const Tensor g_skip = (k < 3) ? blk.d->backward(g) : caps3d_->backward(g);
    g = blk.a->backward(ops::add(g_main, g_skip));
  }

  g = g.reshaped(conv_out_shape_);
  g = relu1_->backward(g);
  g = bn1_->backward(g);
  return conv1_->backward(g);
}

std::vector<nn::Param*> DeepCapsModel::params() {
  std::vector<nn::Param*> out;
  auto append = [&out](std::vector<nn::Param*> ps) {
    for (nn::Param* p : ps) out.push_back(p);
  };
  append(conv1_->params());
  append(bn1_->params());
  for (Block& blk : blocks_) {
    append(blk.a->params());
    append(blk.b->params());
    append(blk.c->params());
    if (blk.d) append(blk.d->params());
  }
  append(caps3d_->params());
  append(class_caps_->params());
  return out;
}

std::vector<std::string> DeepCapsModel::layer_names() const {
  std::vector<std::string> names{"Conv2D"};
  for (int i = 1; i <= 15; ++i) names.push_back("Caps2D" + std::to_string(i));
  names.push_back("Caps3D");
  names.push_back("ClassCaps");
  return names;
}

}  // namespace redcane::capsnet
