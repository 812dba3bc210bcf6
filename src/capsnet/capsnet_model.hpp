// The original CapsNet architecture (Sabour et al. [25]):
//   Conv1 (9x9, ReLU) -> PrimaryCaps (9x9/2, squash) -> ClassCaps (routing)
//
// `paper()` matches the published hyper-parameters (256 conv channels,
// 32x8D primary capsules, 10x16D class capsules on 28x28x1 inputs);
// `tiny()` preserves the topology and every injection site at a scale the
// pure-CPU resilience sweeps can afford (DESIGN.md §4).
#pragma once

#include <memory>
#include <optional>

#include "capsnet/class_caps.hpp"
#include "capsnet/model.hpp"
#include "capsnet/primary_caps.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"

namespace redcane::capsnet {

struct CapsNetConfig {
  std::int64_t input_hw = 28;
  std::int64_t input_channels = 1;
  std::int64_t num_classes = 10;

  std::int64_t conv1_channels = 256;
  std::int64_t conv1_kernel = 9;

  std::int64_t primary_types = 32;
  std::int64_t primary_dim = 8;
  std::int64_t primary_kernel = 9;
  std::int64_t primary_stride = 2;

  std::int64_t class_dim = 16;
  int routing_iters = 3;

  /// Published architecture.
  static CapsNetConfig paper();
  /// Sweep-affordable profile with identical topology.
  static CapsNetConfig tiny();

  /// Footprint of CapsNetModel(*this), walked without allocating; nullopt
  /// when a layer's output would be empty. Exact for fields below 2^16.
  [[nodiscard]] std::optional<ParamLayout> param_layout() const;
};

class CapsNetModel final : public CapsModel {
 public:
  CapsNetModel(const CapsNetConfig& cfg, Rng& rng);

  /// Six stages, one per hook-site boundary: Conv1 conv | Conv1 ReLU |
  /// PrimaryCaps conv | PrimaryCaps squash | ClassCaps votes | routing.
  [[nodiscard]] int num_stages() const override { return 6; }
  Tensor backward(const Tensor& grad_v) override;
  std::vector<nn::Param*> params() override;
  [[nodiscard]] std::vector<std::string> layer_names() const override;
  [[nodiscard]] std::string name() const override { return "CapsNet"; }
  [[nodiscard]] Shape input_shape() const override {
    return Shape{cfg_.input_hw, cfg_.input_hw, cfg_.input_channels};
  }
  [[nodiscard]] std::int64_t num_classes() const override { return cfg_.num_classes; }

  [[nodiscard]] const CapsNetConfig& config() const { return cfg_; }
  [[nodiscard]] ClassCaps& class_caps() { return *class_caps_; }

 protected:
  void stage(int k, std::span<const Tensor> in, Boundary& out, bool train,
             PerturbationHook* hook) override;

 private:
  CapsNetConfig cfg_;
  std::unique_ptr<nn::Conv2D> conv1_;
  std::unique_ptr<nn::ReLU> relu1_;
  std::unique_ptr<PrimaryCaps> primary_;
  std::unique_ptr<ClassCaps> class_caps_;
};

}  // namespace redcane::capsnet
