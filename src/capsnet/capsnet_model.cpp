#include "capsnet/capsnet_model.hpp"

namespace redcane::capsnet {

CapsNetConfig CapsNetConfig::paper() { return CapsNetConfig{}; }

CapsNetConfig CapsNetConfig::tiny() {
  CapsNetConfig c;
  c.conv1_channels = 8;
  c.primary_types = 4;
  c.primary_dim = 4;
  c.class_dim = 8;
  return c;
}

std::optional<ParamLayout> CapsNetConfig::param_layout() const {
  const std::int64_t h1 = conv_out_extent(input_hw, conv1_kernel, 1, 0);
  const std::int64_t h2 = conv_out_extent(h1, primary_kernel, primary_stride, 0);
  if (h2 <= 0) return std::nullopt;
  const std::int64_t caps = primary_types * primary_dim;
  ParamLayout l;
  l.tensors = 5;  // Conv1 w, b; PrimaryCaps w, b; ClassCaps w.
  l.floats = conv1_kernel * conv1_kernel * input_channels * conv1_channels + conv1_channels +
             primary_kernel * primary_kernel * conv1_channels * caps + caps +
             h2 * h2 * primary_types * num_classes * primary_dim * class_dim;
  return l;
}

CapsNetModel::CapsNetModel(const CapsNetConfig& cfg, Rng& rng) : cfg_(cfg) {
  nn::Conv2DSpec c1;
  c1.in_channels = cfg.input_channels;
  c1.out_channels = cfg.conv1_channels;
  c1.kernel = cfg.conv1_kernel;
  c1.stride = 1;
  c1.pad = 0;
  conv1_ = std::make_unique<nn::Conv2D>("Conv1", c1, rng);
  relu1_ = std::make_unique<nn::ReLU>();

  PrimaryCapsSpec ps;
  ps.in_channels = cfg.conv1_channels;
  ps.types = cfg.primary_types;
  ps.dim = cfg.primary_dim;
  ps.kernel = cfg.primary_kernel;
  ps.stride = cfg.primary_stride;
  primary_ = std::make_unique<PrimaryCaps>("PrimaryCaps", ps, rng);

  const std::int64_t after_conv1 = conv_out_extent(cfg.input_hw, c1.kernel, c1.stride, c1.pad);
  const std::int64_t after_primary = conv_out_extent(after_conv1, ps.kernel, ps.stride, ps.pad);
  ClassCapsSpec cs;
  cs.in_caps = after_primary * after_primary * cfg.primary_types;
  cs.in_dim = cfg.primary_dim;
  cs.out_caps = cfg.num_classes;
  cs.out_dim = cfg.class_dim;
  cs.routing_iters = cfg.routing_iters;
  class_caps_ = std::make_unique<ClassCaps>("ClassCaps", cs, rng);
}

void CapsNetModel::stage(int k, std::span<const Tensor> in, Boundary& out, bool train,
                         PerturbationHook* hook) {
  switch (k) {
    case 0:
      out.push_back(conv1_->forward(in[0], train));
      emit(hook, "Conv1", OpKind::kMacOutput, out[0]);
      break;
    case 1:
      out.push_back(relu1_->forward(in[0], train));
      emit(hook, "Conv1", OpKind::kActivation, out[0]);
      break;
    case 2: out.push_back(primary_->forward_conv(in[0], train, hook)); break;
    case 3: out.push_back(primary_->forward_squash(in[0], hook)); break;
    case 4: out.push_back(class_caps_->forward_votes(in[0], train, hook)); break;
    default: out.push_back(class_caps_->forward_routing(in[0], train, hook)); break;
  }
}

Tensor CapsNetModel::backward(const Tensor& grad_v) {
  Tensor g = class_caps_->backward(grad_v);
  g = primary_->backward(g);
  g = relu1_->backward(g);
  return conv1_->backward(g);
}

std::vector<nn::Param*> CapsNetModel::params() {
  std::vector<nn::Param*> out;
  for (nn::Param* p : conv1_->params()) out.push_back(p);
  for (nn::Param* p : primary_->params()) out.push_back(p);
  for (nn::Param* p : class_caps_->params()) out.push_back(p);
  return out;
}

std::vector<std::string> CapsNetModel::layer_names() const {
  return {conv1_->name(), primary_->name(), class_caps_->name()};
}

}  // namespace redcane::capsnet
