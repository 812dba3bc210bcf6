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

  const std::int64_t after_conv1 = cfg.input_hw - cfg.conv1_kernel + 1;
  const std::int64_t after_primary =
      (after_conv1 - cfg.primary_kernel) / cfg.primary_stride + 1;
  ClassCapsSpec cs;
  cs.in_caps = after_primary * after_primary * cfg.primary_types;
  cs.in_dim = cfg.primary_dim;
  cs.out_caps = cfg.num_classes;
  cs.out_dim = cfg.class_dim;
  cs.routing_iters = cfg.routing_iters;
  class_caps_ = std::make_unique<ClassCaps>("ClassCaps", cs, rng);
}

Tensor CapsNetModel::forward(const Tensor& x, bool train, PerturbationHook* hook) {
  // Identical op sequence to forward_range(0, num_stages()): the two paths
  // must stay bit-equal so checkpointed sweeps match full evaluations.
  Tensor t = conv1_->forward(x, train);
  emit(hook, "Conv1", OpKind::kMacOutput, t);
  t = relu1_->forward(t, train);
  emit(hook, "Conv1", OpKind::kActivation, t);
  t = primary_->forward_conv(t, train, hook);
  t = primary_->forward_squash(t, hook);
  t = class_caps_->forward_votes(t, train, hook);
  return class_caps_->forward_routing(t, train, hook);
}

Tensor CapsNetModel::forward_range(int first, int last, StageState& state,
                                   PerturbationHook* hook, bool record) {
  // Stages never mutate their input tensors, so the entry boundary (which
  // may be a shared prefix-cache checkpoint) is read in place, not copied.
  std::vector<Tensor> scratch;
  const std::vector<Tensor>* cur = &state.at[static_cast<std::size_t>(first)];
  for (int k = first; k < last; ++k) {
    std::vector<Tensor> next;
    switch (k) {
      case 0: {
        Tensor t = conv1_->forward((*cur)[0], /*train=*/false);
        emit(hook, "Conv1", OpKind::kMacOutput, t);
        next = {std::move(t)};
        break;
      }
      case 1: {
        Tensor t = relu1_->forward((*cur)[0], /*train=*/false);
        emit(hook, "Conv1", OpKind::kActivation, t);
        next = {std::move(t)};
        break;
      }
      case 2:
        next = {primary_->forward_conv((*cur)[0], /*train=*/false, hook)};
        break;
      case 3:
        next = {primary_->forward_squash((*cur)[0], hook)};
        break;
      case 4:
        next = {class_caps_->forward_votes((*cur)[0], /*train=*/false, hook)};
        break;
      default:
        next = {class_caps_->forward_routing((*cur)[0], /*train=*/false, hook)};
        break;
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
  return {"Conv1", "PrimaryCaps", "ClassCaps"};
}

}  // namespace redcane::capsnet
