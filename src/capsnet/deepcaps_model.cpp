#include "capsnet/deepcaps_model.hpp"

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

  // Spatial extent after the stem and the four strided block entries.
  std::int64_t hw = conv_out_extent(cfg.input_hw, c1.kernel, c1.stride, c1.pad);
  for (const Block& blk : blocks_) {
    const ConvCaps2DSpec& s = blk.a->spec();
    hw = conv_out_extent(hw, s.kernel, s.stride, s.pad);
  }

  ClassCapsSpec cs;
  cs.in_caps = hw * hw * t;
  cs.in_dim = cfg.dim_rest;
  cs.out_caps = cfg.num_classes;
  cs.out_dim = cfg.class_dim;
  cs.routing_iters = cfg.routing_iters;
  class_caps_ = std::make_unique<ClassCaps>("ClassCaps", cs, rng);
}

void DeepCapsModel::stage(int k, std::span<const Tensor> in, Boundary& out, bool train,
                          PerturbationHook* hook) {
  if (k == 0) {
    out.push_back(bn1_->forward(conv1_->forward(in[0], train), train));
    emit(hook, "Conv2D", OpKind::kMacOutput, out[0]);
    return;
  }
  if (k == 1) {
    Tensor t = relu1_->forward(in[0], train);
    emit(hook, "Conv2D", OpKind::kActivation, t);
    if (train) conv_out_shape_ = t.shape();
    const Shape caps{t.shape().dim(0), t.shape().dim(1), t.shape().dim(2), cfg_.types,
                     cfg_.dim_block1};
    out.push_back(std::move(t).reshaped(caps));
    return;
  }
  if (k == 14) {
    const Shape& s = in[0].shape();
    if (train) pre_flatten_shape_ = s;
    const Tensor flat = in[0].reshaped(Shape{s.dim(0), s.dim(1) * s.dim(2) * s.dim(3), s.dim(4)});
    out.push_back(class_caps_->forward(flat, train, hook));
    return;
  }
  Block& blk = blocks_[(k - 2) / 3];
  const int phase = (k - 2) % 3;
  if (phase == 0) {
    out.push_back(blk.a->forward(in[0], train, hook));  // Strided; feeds both branches.
  } else if (phase == 1) {
    // Main pair. The entry rides along for the skip stage: the one copy a
    // hand-off makes.
    out.push_back(in[0]);
    out.push_back(blk.c->forward(blk.b->forward(in[0], train, hook), train, hook));
  } else {
    // Skip branch (the routed ConvCaps3D in block 4), summed with main.
    const Tensor skip =
        blk.d ? blk.d->forward(in[0], train, hook) : caps3d_->forward(in[0], train, hook);
    out.push_back(ops::add(in[1], skip));
  }
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
  std::vector<std::string> names{conv1_->name()};
  for (const Block& blk : blocks_) {
    for (const ConvCaps2D* layer : {blk.a.get(), blk.b.get(), blk.c.get(), blk.d.get()}) {
      if (layer != nullptr) names.push_back(layer->name());
    }
  }
  names.push_back(caps3d_->name());
  names.push_back(class_caps_->name());
  return names;
}

}  // namespace redcane::capsnet
