#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "tensor/ops.hpp"

namespace redcane::capsnet {
namespace {

TEST(CapsNetModel, TinyForwardShape) {
  Rng rng(1);
  CapsNetModel model(CapsNetConfig::tiny(), rng);
  Rng drng(2);
  const Tensor x = ops::uniform(Shape{2, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, false, nullptr);
  EXPECT_EQ(v.shape(), (Shape{2, 10, 8}));
  EXPECT_EQ(model.num_classes(), 10);
  EXPECT_EQ(model.input_shape(), (Shape{28, 28, 1}));
}

TEST(CapsNetModel, PaperConfigMatchesPublication) {
  const CapsNetConfig cfg = CapsNetConfig::paper();
  EXPECT_EQ(cfg.conv1_channels, 256);
  EXPECT_EQ(cfg.primary_types, 32);
  EXPECT_EQ(cfg.primary_dim, 8);
  EXPECT_EQ(cfg.class_dim, 16);
  EXPECT_EQ(cfg.routing_iters, 3);
}

TEST(CapsNetModel, LayerNames) {
  Rng rng(3);
  CapsNetModel model(CapsNetConfig::tiny(), rng);
  const auto names = model.layer_names();
  ASSERT_EQ(names.size(), 3U);
  EXPECT_EQ(names[0], "Conv1");
  EXPECT_EQ(names[2], "ClassCaps");
}

TEST(CapsNetModel, DeterministicForward) {
  Rng rng_a(7);
  Rng rng_b(7);
  CapsNetModel a(CapsNetConfig::tiny(), rng_a);
  CapsNetModel b(CapsNetConfig::tiny(), rng_b);
  Rng drng(4);
  const Tensor x = ops::uniform(Shape{1, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor va = a.forward(x, false, nullptr);
  const Tensor vb = b.forward(x, false, nullptr);
  for (std::int64_t i = 0; i < va.numel(); ++i) EXPECT_EQ(va.at(i), vb.at(i));
}

TEST(DeepCapsModel, TinyForwardShape) {
  Rng rng(5);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  Rng drng(6);
  const Tensor x = ops::uniform(Shape{2, 16, 16, 3}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, false, nullptr);
  EXPECT_EQ(v.shape(), (Shape{2, 10, 8}));
}

TEST(DeepCapsModel, Has18NamedLayers) {
  Rng rng(7);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  const auto names = model.layer_names();
  ASSERT_EQ(names.size(), 18U);
  EXPECT_EQ(names.front(), "Conv2D");
  EXPECT_EQ(names[1], "Caps2D1");
  EXPECT_EQ(names[15], "Caps2D15");
  EXPECT_EQ(names[16], "Caps3D");
  EXPECT_EQ(names.back(), "ClassCaps");
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(DeepCapsModel, PaperConfigMatchesPublication) {
  const DeepCapsConfig cfg = DeepCapsConfig::paper();
  EXPECT_EQ(cfg.input_hw, 32);
  EXPECT_EQ(cfg.types, 32);
  EXPECT_EQ(cfg.dim_block1, 4);
  EXPECT_EQ(cfg.dim_rest, 8);
  EXPECT_EQ(cfg.class_dim, 16);
}

TEST(DeepCapsModel, BackwardProducesInputGradient) {
  Rng rng(8);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  Rng drng(9);
  // Batch > 1: batch normalization over a single sample at the final 1x1
  // spatial extent would normalize the activations away.
  const Tensor x = ops::uniform(Shape{4, 16, 16, 3}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, true, nullptr);
  const Tensor g = model.backward(v);
  EXPECT_EQ(g.shape(), x.shape());
  // Gradients reach the parameters (at least most of them are non-zero).
  int nonzero_params = 0;
  for (nn::Param* p : model.params()) {
    for (float gv : p->grad.data()) {
      if (gv != 0.0F) {
        ++nonzero_params;
        break;
      }
    }
  }
  EXPECT_GT(nonzero_params, static_cast<int>(model.params().size() / 2));
}

TEST(Serialize, RoundTripRestoresOutputs) {
  Rng rng_a(10);
  CapsNetModel a(CapsNetConfig::tiny(), rng_a);
  Rng drng(11);
  const Tensor x = ops::uniform(Shape{1, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor va = a.forward(x, false, nullptr);

  const std::string path = ::testing::TempDir() + "/redcane_params.bin";
  ASSERT_TRUE(save_params(a, path));

  Rng rng_b(999);  // Different init.
  CapsNetModel b(CapsNetConfig::tiny(), rng_b);
  ASSERT_TRUE(load_params(b, path));
  const Tensor vb = b.forward(x, false, nullptr);
  for (std::int64_t i = 0; i < va.numel(); ++i) EXPECT_EQ(va.at(i), vb.at(i));
}

TEST(Serialize, RejectsMismatchedModel) {
  Rng rng(12);
  CapsNetModel small(CapsNetConfig::tiny(), rng);
  const std::string path = ::testing::TempDir() + "/redcane_mismatch.bin";
  ASSERT_TRUE(save_params(small, path));
  Rng rng2(13);
  DeepCapsModel other(DeepCapsConfig::tiny(), rng2);
  EXPECT_FALSE(load_params(other, path));
}

TEST(Serialize, MissingFileFailsCleanly) {
  Rng rng(14);
  CapsNetModel m(CapsNetConfig::tiny(), rng);
  EXPECT_FALSE(load_params(m, "/nonexistent/path/params.bin"));
}

/// The footprint a built model actually has.
ParamLayout built_layout(CapsModel& model) {
  ParamLayout l;
  for (nn::Param* p : model.params()) {
    ++l.tensors;
    l.floats += p->value.numel();
  }
  return l;
}

// The config walk a manifest is checked with before its model is built
// must agree with the model that build would allocate.
TEST(ParamLayout, ConfigWalkMatchesBuiltModels) {
  for (const bool paper : {false, true}) {
    for (const std::int64_t hw : {17, 20, 28, 33}) {
      CapsNetConfig cfg = paper ? CapsNetConfig::paper() : CapsNetConfig::tiny();
      cfg.input_hw = hw;
      Rng rng(15);
      CapsNetModel model(cfg, rng);
      const std::optional<ParamLayout> walked = cfg.param_layout();
      ASSERT_TRUE(walked.has_value()) << "CapsNet hw " << hw;
      const ParamLayout built = built_layout(model);
      EXPECT_EQ(walked->tensors, built.tensors) << "CapsNet paper=" << paper << " hw " << hw;
      EXPECT_EQ(walked->floats, built.floats) << "CapsNet paper=" << paper << " hw " << hw;
    }
    for (const std::int64_t hw : {1, 8, 16, 33}) {
      DeepCapsConfig cfg = paper ? DeepCapsConfig::paper() : DeepCapsConfig::tiny();
      cfg.input_hw = hw;
      Rng rng(16);
      DeepCapsModel model(cfg, rng);
      const std::optional<ParamLayout> walked = cfg.param_layout();
      ASSERT_TRUE(walked.has_value()) << "DeepCaps hw " << hw;
      const ParamLayout built = built_layout(model);
      EXPECT_EQ(walked->tensors, built.tensors) << "DeepCaps paper=" << paper << " hw " << hw;
      EXPECT_EQ(walked->floats, built.floats) << "DeepCaps paper=" << paper << " hw " << hw;
    }
  }
}

TEST(ParamLayout, EmptyLayerOutputHasNoLayout) {
  CapsNetConfig capsnet = CapsNetConfig::tiny();
  for (const std::int64_t hw : {0, 8, 12, 14, 16}) {  // 9x9 conv, then 9x9/2 primary.
    capsnet.input_hw = hw;
    EXPECT_FALSE(capsnet.param_layout().has_value()) << "CapsNet hw " << hw;
  }
  DeepCapsConfig deepcaps = DeepCapsConfig::tiny();
  deepcaps.input_hw = 0;
  EXPECT_FALSE(deepcaps.param_layout().has_value());
}

}  // namespace
}  // namespace redcane::capsnet
