// DeepCaps (Rajasegaran et al. [24]), the 18-layer capsule network of the
// paper's Fig. 2:
//
//   Conv2D (3x3, ReLU)
//   4 residual capsule blocks of 4 ConvCaps each (first layer strided,
//   fourth layer a skip branch summed with the main path); the skip layer
//   of the last block is the routed ConvCaps3D
//   ClassCaps (10 x 16, dynamic routing)
//
// Layer names follow the paper's Fig. 10 axis exactly:
//   Conv2D, Caps2D1..Caps2D15, Caps3D, ClassCaps.
#pragma once

#include <memory>
#include <optional>

#include "capsnet/class_caps.hpp"
#include "capsnet/conv_caps2d.hpp"
#include "capsnet/conv_caps3d.hpp"
#include "capsnet/model.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace redcane::capsnet {

struct DeepCapsConfig {
  std::int64_t input_hw = 32;
  std::int64_t input_channels = 3;
  std::int64_t num_classes = 10;

  std::int64_t types = 32;     ///< Capsule types per block (32 in the paper).
  std::int64_t dim_block1 = 4; ///< Capsule dim of conv stem + block 1.
  std::int64_t dim_rest = 8;   ///< Capsule dim of blocks 2-4.
  std::int64_t class_dim = 16;
  int routing_iters = 3;

  /// Published architecture (CIFAR-10 scale).
  static DeepCapsConfig paper();
  /// Sweep-affordable profile with identical 18-layer topology.
  static DeepCapsConfig tiny();

  /// Footprint of DeepCapsModel(*this), walked without allocating; nullopt
  /// when a layer's output would be empty. Exact for fields below 2^16.
  [[nodiscard]] std::optional<ParamLayout> param_layout() const;
};

class DeepCapsModel final : public CapsModel {
 public:
  DeepCapsModel(const DeepCapsConfig& cfg, Rng& rng);

  Tensor forward(const Tensor& x, bool train, PerturbationHook* hook) override;
  /// 15 stages: conv stem (conv+BN | ReLU), then 3 per residual block
  /// (strided entry | main pair | skip + sum), then ClassCaps.
  [[nodiscard]] int num_stages() const override { return 15; }
  Tensor forward_range(int first, int last, StageState& state, PerturbationHook* hook,
                       bool record) override;
  Tensor backward(const Tensor& grad_v) override;
  std::vector<nn::Param*> params() override;
  [[nodiscard]] std::vector<std::string> layer_names() const override;
  [[nodiscard]] std::string name() const override { return "DeepCaps"; }
  [[nodiscard]] Shape input_shape() const override {
    return Shape{cfg_.input_hw, cfg_.input_hw, cfg_.input_channels};
  }
  [[nodiscard]] std::int64_t num_classes() const override { return cfg_.num_classes; }

  [[nodiscard]] const DeepCapsConfig& config() const { return cfg_; }
  [[nodiscard]] ConvCaps3D& caps3d() { return *caps3d_; }
  [[nodiscard]] ClassCaps& class_caps() { return *class_caps_; }

 private:
  /// Residual capsule block: main = Lc(Lb(La(x))), skip = Ld(La(x)),
  /// output = main + skip (squashed tensors summed, as in DeepCaps).
  struct Block {
    std::unique_ptr<ConvCaps2D> a;  ///< Strided entry layer.
    std::unique_ptr<ConvCaps2D> b;
    std::unique_ptr<ConvCaps2D> c;
    std::unique_ptr<ConvCaps2D> d;  ///< Skip branch (null for block 4).
  };

  DeepCapsConfig cfg_;
  std::unique_ptr<nn::Conv2D> conv1_;
  std::unique_ptr<nn::BatchNorm> bn1_;
  std::unique_ptr<nn::ReLU> relu1_;
  Block blocks_[4];
  std::unique_ptr<ConvCaps3D> caps3d_;  ///< Skip branch of block 4.
  std::unique_ptr<ClassCaps> class_caps_;
  Shape pre_flatten_shape_;  ///< Rank-5 shape entering ClassCaps.
  Shape conv_out_shape_;     ///< NHWC shape of the conv stem output.
};

}  // namespace redcane::capsnet
